"""Riemannian geometry on constraint slices.

The full Hessian metric is degenerate, so curvature only makes sense
after restricting to an affine slice {Bx = c} transversal to the
kernel.  The fixed-N slice of the ideal gas carries a flat product
metric; a fixed-angular-momentum slice of the black-hole model is
genuinely curved.
"""

import numpy as np

from hessiometric import builtin
from hessiometric.submanifold import (curvature, levi_civita, make_slice,
                                      pullback_metric)

np.set_printoptions(precision=6, suppress=True)

gas = builtin("ideal_gas")

print("=== Fixed-N slice of the ideal gas (coordinates U, V) ===")
sl = make_slice([0, 0, 1], [1])
pb = pullback_metric(gas, sl, [1, 1])
print("induced metric at (U,V)=(1,1):")
print(pb.gbar)
# on-demand cross-check: the chain rule on the ambient metric agrees with
# the z-Hessian of the pulled-back potential (costs one more evaluation)
print("two-path consistency residual:", pb.two_path_residual)

gamma = levi_civita(pb)
print("\nGamma^U_UU =", gamma[0, 0, 0], " (log-derivative of 1/U scaling)")

print("\nscalar curvature over a grid (flat product metric):")
for u in (0.5, 1.0, 2.0):
    row = [curvature(pullback_metric(gas, sl, [u, v])).scalar
           for v in (0.5, 1.0, 2.0)]
    print(f"  U={u}: {row}")

print("\n=== Fixed-J slice of the radiant black-hole model ===")
kn = builtin("kerr_newman_radiant")
sl_j = make_slice([0, 0, 1], [0.25])
print("scalar curvature along u at q=0.2 (nonzero and varying):")
for u in (1.0, 1.5, 2.0):
    report = curvature(pullback_metric(kn, sl_j, [u, 0.2]))
    print(f"  u={u}: scalar = {report.scalar:.6f}   "
          f"residuals: bianchi {report.residuals['bianchi']:.1e}, "
          f"metric-compat {report.residuals['metric_compatibility']:.1e}")

print("\nOne-dimensional slices are exactly flat by construction:")
sl1 = make_slice([[1, 0, 0], [0, 1, 0]], [1, 1])
print("  scalar =", curvature(pullback_metric(gas, sl1, [1.2])).scalar)
