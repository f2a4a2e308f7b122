"""Independent references for every value the benchmark checks.

Nothing here imports ``hessiometric``.  The entropies are transcribed
from the model definitions; their derivatives come from sympy (exact
symbolic differentiation), the Kerr-Newman constant-J slice curvature is
assembled in 40-digit mpmath arithmetic, and the ideal-gas, paramagnet
and KN slice metrics also have plain-float closed forms.  Everything is
built once, at set-up, outside every timed region.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
import sympy as sp

_DPS = 40
TOL_RANK = 1e-9   # the CLI's default --tol-rank
TOL_CHECK = 1e-8  # the CLI's default --tol-check

_U, _V, _N, _I = sp.symbols("U V N I")
_u, _q, _j = sp.symbols("u q j")
_M, _Q, _J = sp.symbols("M Q J")

# Entropies with the builtins' default parameters (R=1, c=3/2, K=1, S0=0;
# T0=1, I0=1).
ENTROPIES = {
    "ideal_gas": ((_U, _V, _N),
                  _N * sp.log(_V * _U ** sp.Rational(3, 2)
                              * _N ** sp.Rational(-5, 2))),
    "paramagnet": ((_U, _I, _N),
                   _N * (sp.log(_U / _N) - _I ** 2 / _N ** 2)),
    "kerr_newman_radiant": ((_u, _q, _j),
                            sp.Rational(1, 4) * (_u + sp.sqrt(_u ** 2 - _q * _u - _j ** 2)
                                                 - _q / 2)),
    "kerr_newman_naive": ((_M, _Q, _J),
                          sp.Rational(1, 4) * (_M ** 2 + _M ** 2 * sp.sqrt(
                              1 - _Q ** 2 / _M ** 2 - _J ** 2 / _M ** 4)
                              - _Q ** 2 / 2)),
}
EXTENSIVE = {"ideal_gas": True, "paramagnet": True,
             "kerr_newman_radiant": True, "kerr_newman_naive": False}


def in_domain(name: str, x) -> bool:
    """The model's domain constraints, strictly positive, in plain floats."""
    a, b, c = (float(v) for v in x)
    if name == "ideal_gas":
        return a > 0 and b > 0 and c > 0
    if name == "paramagnet":
        return a > 0 and c > 0
    if name == "kerr_newman_radiant":
        return a > 0 and a * a - b * a - c * c > 0
    if name == "kerr_newman_naive":
        return a > 0 and 1 - b * b / (a * a) - c * c / a ** 4 > 0
    raise KeyError(name)


def kn_extremality(u, q, j) -> float:
    """Relative distance (u^2 - q u - j^2) / u^2 to the extremal surface,
    in 40-digit arithmetic; negative outside the domain."""
    u, q, j = (mpmath.mpf(float(v)) for v in (u, q, j))
    with mpmath.workdps(_DPS):
        return float((u * u - q * u - j * j) / (u * u))


# -- plain-float closed forms ------------------------------------------

def metric_ideal_gas(x):
    U, V, N = x
    c = 1.5
    return np.array([[c * N / U ** 2, 0.0, -c / U],
                     [0.0, N / V ** 2, -1.0 / V],
                     [-c / U, -1.0 / V, (c + 1) / N]])


def metric_paramagnet(x):
    U, I, N = x
    return np.array([[N / U ** 2, 0.0, -1.0 / U],
                     [0.0, 2.0 / N, -2.0 * I / N ** 2],
                     [-1.0 / U, -2.0 * I / N ** 2, (1.0 + 2.0 * I ** 2 / N ** 2) / N]])


def metric_kn_jslice(z, j):
    """Induced metric of kerr_newman_radiant on {j = const}, in (u, q)."""
    u, q = z
    w = math.sqrt(u * u - q * u - j * j)
    return np.array([[4 * j * j + q * q, -(q * u + 2 * j * j)],
                     [-(q * u + 2 * j * j), u * u]]) / (16 * w ** 3)


PLAIN_METRICS = {"ideal_gas": metric_ideal_gas, "paramagnet": metric_paramagnet}


# -- sympy-derived references ------------------------------------------

@lru_cache(maxsize=None)
def _symbolic(name):
    xs, s = ENTROPIES[name]
    phi = -s
    grad = [sp.diff(phi, v) for v in xs]
    hess = [[sp.diff(phi, a, b) for b in xs] for a in xs]
    return xs, phi, grad, hess


@lru_cache(maxsize=None)
def metric_fn(name):
    """Float function x -> metric -Hess S, lambdified from sympy."""
    xs, _, _, hess = _symbolic(name)
    f = sp.lambdify(xs, hess, "math")
    return lambda x: np.array(f(*(float(v) for v in x)), dtype=float)


@lru_cache(maxsize=None)
def potential_fn(name):
    """Float function x -> (phi, grad phi) with phi = -S, from sympy."""
    xs, phi, grad, _ = _symbolic(name)
    f = sp.lambdify(xs, [phi, grad], "math")

    def evaluate(x):
        value, g = f(*(float(v) for v in x))
        return float(value), np.array(g, dtype=float)
    return evaluate


def metric(name, x):
    """Reference ambient metric: plain floats where a closed form is
    transcribed, sympy otherwise."""
    plain = PLAIN_METRICS.get(name)
    return plain(x) if plain else metric_fn(name)(x)


def euler_defect(name, x) -> float:
    value, grad = potential_fn(name)(x)
    return float(np.dot(np.asarray(x, dtype=float), grad) - value)


# -- exact slice curvature (KN, constant J) -----------------------------

@lru_cache(maxsize=None)
def _kn_jslice_derivatives():
    """mpmath function (u, q, j) -> {multi-index: derivative of phi}
    for every multi-index of order 2..4 in (u, q)."""
    _, s = ENTROPIES["kerr_newman_radiant"]
    phi = -s
    keys, exprs = [], []
    for order in (2, 3, 4):
        for a in range(order + 1):
            keys.append((order - a, a))
            exprs.append(sp.diff(phi, _u, order - a, _q, a))
    f = sp.lambdify((_u, _q, _j), exprs, "mpmath", cse=True)
    return keys, f


def _scalar_curvature_2d(d):
    """Scalar curvature of the Hessian metric g_ab = d_a d_b phi in two
    dimensions, from phi's derivatives ``d[(i, k)]`` = d_u^i d_q^k phi,
    with R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb."""
    def p(*axes):
        return d[(axes.count(0), axes.count(1))]
    r = range(2)
    g = mpmath.matrix([[p(a, b) for b in r] for a in r])
    gi = g ** -1
    dg = [[[p(k, a, b) for b in r] for a in r] for k in r]          # d_k g_ab
    d2g = [[[[p(l, k, a, b) for b in r] for a in r] for k in r] for l in r]
    low = [[[(dg[a][e][b] + dg[b][e][a] - dg[e][a][b]) / 2 for b in r] for a in r]
           for e in r]                                             # G_eab
    gam = [[[sum(gi[c, e] * low[e][a][b] for e in r) for b in r] for a in r]
           for c in r]                                             # G^c_ab
    dlow = [[[[(d2g[f][a][e][b] + d2g[f][b][e][a] - d2g[f][e][a][b]) / 2
               for b in r] for a in r] for e in r] for f in r]
    dgi = [[[-sum(gi[c, a] * dg[f][a][b] * gi[b, e] for a in r for b in r)
             for e in r] for c in r] for f in r]                   # d_f g^ce
    dgam = [[[[sum(dgi[f][c][e] * low[e][a][b] + gi[c, e] * dlow[f][e][a][b]
                   for e in r) for b in r] for a in r] for c in r] for f in r]

    def riemann(a, b, c, dd):
        return (dgam[c][a][dd][b] - dgam[dd][a][c][b]
                + sum(gam[a][c][e] * gam[e][dd][b] - gam[a][dd][e] * gam[e][c][b]
                      for e in r))
    ricci = [[sum(riemann(a, b, a, dd) for a in r) for dd in r] for b in r]
    return sum(gi[b, dd] * ricci[b][dd] for b in r for dd in r)


def kn_jslice_scalar(u, q, j) -> float:
    """Scalar curvature of kerr_newman_radiant on {j = const} at (u, q),
    exact for the given float inputs to about 30 digits."""
    keys, f = _kn_jslice_derivatives()
    with mpmath.workdps(_DPS):
        vals = f(mpmath.mpf(float(u)), mpmath.mpf(float(q)), mpmath.mpf(float(j)))
        return float(_scalar_curvature_2d(dict(zip(keys, vals))))


# -- slices ------------------------------------------------------------

def slice_chart(B, c):
    """Embedding x = jac @ z + offset of the slice {Bx = c} in the chart
    the package documents: B is completed by the standard basis vectors
    that column-pivoted QR of B leaves free, orthogonalised against B's
    row space.  Returns (jac, offset, tail) where tail = the columns of
    the inverse chart belonging to the constraint values."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m, n = B.shape
    # greedy column pivoting (Businger-Golub), first maximum wins
    work = B.copy()
    pivots = []
    for _ in range(m):
        norms = [np.linalg.norm(work[:, k]) if k not in pivots else -1.0
                 for k in range(n)]
        k = int(np.argmax(norms))
        pivots.append(k)
        v = work[:, k] / norms[k]
        work = work - np.outer(v, v @ work)
    free = [k for k in range(n) if k not in pivots][: n - m]
    # orthonormal basis of B's row space by Gram-Schmidt
    basis = []
    for row in B:
        v = row - sum(np.dot(row, b) * b for b in basis)
        basis.append(v / np.linalg.norm(v))
    rows = []
    for k in free:
        e = np.zeros(n)
        e[k] = 1.0
        rows.append(e - sum(np.dot(e, b) * b for b in basis))
    T_inv = np.linalg.inv(np.vstack(rows + [B]))
    r = n - m
    return T_inv[:, :r], T_inv[:, r:] @ c, T_inv[:, r:]


def legendre_point(name, B, c, z):
    """(phi_star, extensive_form, dual_coordinates) on the slice at z."""
    jac, offset, tail = slice_chart(B, c)
    z = np.asarray(z, dtype=float)
    value, grad_x = potential_fn(name)(jac @ z + offset)
    dual = jac.T @ grad_x
    phi_star = float(z @ dual - value)
    extensive = float(-(np.asarray(c, dtype=float) @ (tail.T @ grad_x)))
    return phi_star, extensive, dual


def close(actual, expected, rel, floor=0.0) -> bool:
    """|actual - expected| <= rel * max(|expected|) + floor, elementwise."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    return bool(np.all(np.abs(actual - expected) <= rel * scale + floor))
