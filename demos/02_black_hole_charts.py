"""Two charts on the same black-hole entropy, two very different metrics.

The Kerr-Newman entropy written in (M, Q, J) is not a homogeneous
function, so its Hessian metric is indefinite and the Euler defect
wanders from point to point.  Rewriting the same physics in the
quadratic chart (u, q, j) = (M^2, Q^2, J) makes the entropy exactly
degree-one homogeneous: the metric becomes positive semidefinite with
the scaling field in its kernel.
"""

import numpy as np

from hessiometric import builtin
from hessiometric.geometry import (euler_defect, gibbs_duhem_residual,
                                   hessian_metric, kernel, psd_check)

np.set_printoptions(precision=6, suppress=True)

naive = builtin("kerr_newman_naive")
radiant = builtin("kerr_newman_radiant")

print("state (M, Q, J) -> quadratic chart (M^2, Q^2, J)\n")
header = f"{'(M,Q,J)':<18} {'defect naive':>14} {'defect radiant':>15} " \
         f"{'psd naive':>11} {'psd radiant':>12}"
print(header)
for MQJ in ([2.0, 0.5, 0.3], [1.5, 0.4, 0.2], [1.2, 0.3, 0.25],
            [1.8, 0.6, 0.15]):
    M, Q, J = MQJ
    uqj = [M**2, Q**2, J]
    d_n = euler_defect(naive, MQJ)
    d_r = euler_defect(radiant, uqj)
    v_n, _ = psd_check(kernel(hessian_metric(naive, MQJ)))
    v_r, _ = psd_check(kernel(hessian_metric(radiant, uqj)))
    print(f"{str(MQJ):<18} {d_n:>14.6f} {d_r:>15.2e} {v_n:>11} {v_r:>12}")

print("\nThe radiant chart passes the degeneracy test at machine precision:")
for MQJ in ([2.0, 0.5, 0.3], [1.5, 0.4, 0.2]):
    uqj = [MQJ[0] ** 2, MQJ[1] ** 2, MQJ[2]]
    print(f"  |g.rho| residual at {uqj} = "
          f"{gibbs_duhem_residual(hessian_metric(radiant, uqj)):.2e}")

print("\nwhile the naive chart is genuinely indefinite:")
lam = np.linalg.eigvalsh(hessian_metric(naive, [2.0, 0.5, 0.3]).g)
print("  eigenvalues at (2, 0.5, 0.3):", lam)
