"""Legendre duality on a slice.

On a transversal slice the restricted potential is convex, so it has a
Legendre transform.  For an extensive model the dual potential also has
a closed extensive form; both computations must agree.  The dual
connection (twice the Levi-Civita connection) is flat, and the change
to dual coordinates is an isometry between the metric and its inverse.
"""

import math

import numpy as np

from hessiometric import builtin
from hessiometric.submanifold import (dual_flatness_residual, dual_potential,
                                      legendre_invariance_residual,
                                      make_slice, pullback_metric)

np.set_printoptions(precision=6, suppress=True)

gas = builtin("ideal_gas")
sl = make_slice([0, 0, 1], [1])  # fixed particle number

print("=== Dual potential on the fixed-N ideal-gas slice ===")
for z in ([1.0, 1.0], [math.e, 1.0], [1.5, 0.8]):
    dp = dual_potential(pullback_metric(gas, sl, z))
    closed = math.log(z[1] * z[0] ** 1.5) - 2.5
    print(f"(U,V)={z}:  Legendre value {dp.value:+.10f}   "
          f"extensive form {dp.extensive_form:+.10f}   "
          f"closed form {closed:+.10f}")

print("\ndual coordinates at (1,1):", pullback_metric(gas, sl, [1, 1]).gradient,
      " (= -1/T, -p/T)")

print("\n=== Structural residuals ===")
for z in ([1.0, 1.0], [1.3, 0.8]):
    print(f"at {z}: dual-connection flatness = "
          f"{dual_flatness_residual(gas, sl, z):.2e}   "
          f"Legendre isometry residual = "
          f"{legendre_invariance_residual(pullback_metric(gas, sl, z)):.2e}")

print("\nThe extensive form fails for a non-extensive model and the "
      "mismatch is flagged:")
naive = builtin("kerr_newman_naive")
sl_j = make_slice([0, 0, 1], [0.2])
dp = dual_potential(pullback_metric(naive, sl_j, [1.5, 0.4]))
print(f"  value {dp.value:+.6f}  extensive form {dp.extensive_form:+.6f}  "
      f"mismatch flag: {dp.mismatch}")
