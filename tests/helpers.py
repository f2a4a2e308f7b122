"""Shared independent oracles for the test suite.

Everything here is deliberately computed without the jet engine: plain
float math, finite differences, hand-transcribed closed forms, and a
40-digit sympy/mpmath curvature reference.  The general Levi-Civita and
Riemann formulas take the package's jet tensors as input and are the
references its shortcuts must match bit for bit.  The involutivity oracle
takes the kernel fields from the metric and their Lie brackets by finite
differences.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest

from hessiometric import PotentialModel, load_model
from hessiometric.expr import BinOp, Call, Name, Neg, Num
from hessiometric.geometry import NULL_REL, hessian_metric, kernel
from hessiometric.jets import _space, affine_jets

_EPS = 1e-300

# -- closed-form entropies (plain float math) --------------------------

def entropy_ideal_gas(p, R=1.0, c=1.5, K=1.0, S0=0.0):
    U, V, N = p
    return N * R * math.log(K * V * U**c * N ** (-(c + 1))) + S0


def entropy_paramagnet(p, R=1.0, T0=1.0, I0=1.0):
    U, I, N = p
    return N * R * (math.log(U / (N * R * T0)) - I**2 / (N**2 * I0**2))


def entropy_kn_radiant(p):
    u, q, j = p
    return 0.25 * (u + math.sqrt(u**2 - q * u - j**2) - q / 2)


def entropy_kn_naive(p):
    M, Q, J = p
    return 0.25 * (M**2 + M**2 * math.sqrt(1 - Q**2 / M**2 - J**2 / M**4)
                   - Q**2 / 2)


ENTROPY_FNS = {
    "ideal_gas": entropy_ideal_gas,
    "paramagnet": entropy_paramagnet,
    "kerr_newman_radiant": entropy_kn_radiant,
    "kerr_newman_naive": entropy_kn_naive,
}

# safe sampling boxes, well inside each model's domain
SAMPLE_BOXES = {
    "ideal_gas": [(0.5, 2.5), (0.5, 2.5), (0.5, 2.5)],
    "paramagnet": [(0.5, 2.5), (-0.5, 0.5), (0.5, 2.5)],
    "kerr_newman_radiant": [(1.0, 2.0), (0.05, 0.3), (0.05, 0.3)],
    "kerr_newman_naive": [(1.0, 2.0), (0.2, 0.5), (0.1, 0.3)],
}


def sample_points(name, count, rng):
    box = SAMPLE_BOXES[name]
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return lo + (hi - lo) * rng.random((count, len(box)))


# near the domain boundary, at extreme scales and at exact zeros, each with
# a finite order-4 jet
EDGE_POINTS = {
    "ideal_gas": [[1e-20, 1, 1], [1e20, 1, 1], [1, 1e-20, 1e-20], [1e10, 1e-10, 1]],
    "paramagnet": [[1, 0, 1], [2, -0.0, 1], [1e-50, 0.5, 1], [1, 1e50, 1e30]],
    "kerr_newman_radiant": [[0.5, 0.375 - 1e-12, 0.25], [1, 0, 0], [1, 0.999999, 0],
                            [1e-30, 1e-31, 1e-31]],
    "kerr_newman_naive": [[1, 0.999999, 0], [1, 0, 0.999999], [1e10, 1, 1]],
}


# -- jets and slice coordinates, built from the package's tables --------

def seed_jet(point, var_index, order):
    """Jet of the coordinate x^var_index at ``point``, (dim,) or (dim, P)."""
    point = np.asarray(point, dtype=float)
    return affine_jets(point[var_index][None], np.eye(len(point))[[var_index]], order)[0]


def constant_jet(value, dim, order):
    """Jet of the constant ``value``."""
    return affine_jets(np.array([value], dtype=float), np.zeros((1, dim)), order)[0]


def extract(jet, idx):
    """Partial derivative of an unbatched jet for the multi-index ``idx``:
    its Taylor coefficient times the multi-index factorial."""
    _, rank, _, factorials, _, _ = _space(jet.dim, jet.order)
    slot = rank[tuple(idx)]
    return float(jet.coeffs[slot] * factorials[slot])


def project(sl, x):
    """Slice coordinates of the orthogonal projection of an ambient point onto
    the slice ``sl``: its free coordinates, the rows where the Jacobian is the
    identity, less those of the offset (a pivot row equal to a unit row reads
    the same coordinate up to roundoff)."""
    jac, x = sl.jacobian, np.asarray(x, dtype=float)
    free = [np.flatnonzero((jac == e).all(axis=1))[0] for e in np.eye(jac.shape[1])]
    return (x - sl.trailing @ (sl.constraints @ x))[free]


# -- closed-form metric matrices (hand-transcribed) --------------------

def metric_ideal_gas(p, R=1.0, c=1.5):
    U, V, N = p
    return R * np.array([
        [c * N / U**2, 0.0, -c / U],
        [0.0, N / V**2, -1.0 / V],
        [-c / U, -1.0 / V, (c + 1) / N],
    ])


def metric_paramagnet(p, R=1.0, I0=1.0):
    U, I, N = p
    return R * np.array([
        [N / U**2, 0.0, -1.0 / U],
        [0.0, 2.0 / (N * I0**2), -2.0 * I / (N**2 * I0**2)],
        [-1.0 / U, -2.0 * I / (N**2 * I0**2),
         (1.0 / N) * (1.0 + 2.0 * I**2 / (I0**2 * N**2))],
    ])


def metric_kn_radiant_jslice(z, j0):
    """Closed-form induced metric of the constant-momentum slice of the
    radiant-chart Kerr-Newman model, coordinates (u, q)."""
    u, q = z
    w = math.sqrt(u**2 - q * u - j0**2)
    return np.array([
        [(4 * j0**2 + q**2), -(q * u + 2 * j0**2)],
        [-(q * u + 2 * j0**2), u**2],
    ]) / (16 * w**3)


# -- finite-difference derivative oracle -------------------------------

def _fd_once(f, point, alpha, steps):
    """Nested central differences for the multi-index alpha."""
    alpha = list(alpha)
    for i, k in enumerate(alpha):
        if k > 0:
            alpha[i] -= 1
            h = steps[i]

            def deriv(p, i=i, h=h, alpha=tuple(alpha)):
                up = np.array(p, dtype=float)
                dn = np.array(p, dtype=float)
                up[i] += h
                dn[i] -= h
                return (_fd_once(f, up, alpha, steps)
                        - _fd_once(f, dn, alpha, steps)) / (2 * h)

            return deriv(point)
    return f(point)


def fd_partial(f, point, alpha):
    """Partial derivative of f at point for the multi-index alpha by
    Richardson-extrapolated nested central differences (base step
    max(1e-2, |x_i| * 1e-2) per axis)."""
    point = np.asarray(point, dtype=float)
    steps = np.array([max(1e-2, abs(x) * 1e-2) for x in point])
    coarse = _fd_once(f, point, alpha, steps)
    fine = _fd_once(f, point, alpha, steps / 2)
    return (4 * fine - coarse) / 3


def multi_indices(dim, max_order, min_order=1):
    for e in product(range(max_order + 1), repeat=dim):
        if min_order <= sum(e) <= max_order:
            yield e


# -- randomly generated extensive models -------------------------------

def random_homogeneous_model(rng, dim=None):
    """Degree-one homogeneous entropy: sum of a_k * x_i * ln(x_j / x_i)
    terms over distinct coordinate pairs."""
    if dim is None:
        dim = int(rng.integers(2, 5))
    names = [f"x{i+1}" for i in range(dim)]
    n_terms = int(rng.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        i, j = rng.choice(dim, size=2, replace=False)
        a = float(rng.uniform(0.2, 2.0))
        terms.append(f"{a!r}*{names[i]}*ln({names[j]}/{names[i]})")
    doc = {
        "name": "random_homogeneous",
        "coordinates": names,
        "entropy": " + ".join(terms),
        "domain": names,
    }
    return load_model(json.dumps(doc))


def perturbed_model(base_doc, epsilon):
    """Same model with the entropy shifted by -epsilon * x1^2 (the
    potential gains +epsilon * x1^2)."""
    doc = dict(base_doc)
    first = doc["coordinates"][0]
    doc["entropy"] = f"({doc['entropy']}) - {epsilon!r}*{first}^2"
    return load_model(json.dumps(doc))


def pretty(ast):
    """Fully parenthesized text form of an expression AST; re-parses to an
    identical AST within expr.MAX_DEPTH."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, Name):
        return ast.name
    if isinstance(ast, Neg):
        return f"(-{pretty(ast.operand)})"
    if isinstance(ast, BinOp):
        return f"({pretty(ast.left)}{ast.op}{pretty(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.fn}({pretty(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


def model_doc(model):
    """Reconstruct a JSON document for a loaded model (uses the pretty
    printer, so expressions stay equivalent)."""
    return {
        "name": model.name,
        "coordinates": list(model.coordinates),
        "parameters": dict(model.parameters),
        "entropy": pretty(model.entropy),
        "domain": [pretty(d) for d in model.domain],
    }


# -- finite-difference curvature oracle on a 2-dim slice ---------------

def _fd1(fn, z, axis, h):
    """5-point (4th-order) first derivative of a matrix-valued map."""
    step = np.zeros(len(z))
    step[axis] = h
    return (-fn(z + 2 * step) + 8 * fn(z + step)
            - 8 * fn(z - step) + fn(z - 2 * step)) / (12 * h)


def fd_scalar_curvature(gbar_fn, z, h=1e-3):
    """Scalar curvature of a metric given only pointwise, assembling
    Christoffels and the Riemann tensor from finite differences."""
    z = np.asarray(z, dtype=float)
    r = len(z)

    def christoffel(zz):
        g = gbar_fn(zz)
        ginv = np.linalg.inv(g)
        dg = np.stack([_fd1(gbar_fn, zz, k, h) for k in range(r)])
        low = 0.5 * (np.einsum("abc->cab", dg) + np.einsum("bac->cab", dg)
                     - dg)
        return np.einsum("cd,dab->cab", ginv, low)

    gamma = christoffel(z)
    dgamma = np.stack([_fd1(christoffel, z, k, h) for k in range(r)])
    riemann = (np.einsum("cadb->abcd", dgamma)
               - np.einsum("dacb->abcd", dgamma)
               + np.einsum("ace,edb->abcd", gamma, gamma)
               - np.einsum("ade,ecb->abcd", gamma, gamma))
    ricci = np.einsum("abad->bd", riemann)
    return float(np.einsum("bd,bd->", np.linalg.inv(gbar_fn(z)), ricci))


# -- the general formulas the connection and curvature shortcut ---------

def connection_reference(pb, tol_rel=1e-9):
    """(gamma, dgamma) of the induced metric by the general Levi-Civita
    formula: lowered symbols from three index permutations of d_k gbar_ab."""
    lam = np.linalg.eigvalsh(pb.gbar)
    singular = lam[..., 0] <= tol_rel * np.maximum.reduce(np.abs(lam), axis=-1)
    ginv = np.linalg.inv(np.where(singular[..., None, None], np.eye(len(lam.T)), pb.gbar))
    d, d2 = pb.dgbar, pb.d2gbar
    low = 0.5 * (np.einsum("...abc->...cab", d) + np.einsum("...bac->...cab", d) - d)
    dlow = 0.5 * (np.einsum("...eabd->...edab", d2)
                  + np.einsum("...ebad->...edab", d2) - d2)
    dginv = -np.einsum("...ca,...eab,...bd->...ecd", ginv, d, ginv)
    gamma = np.einsum("...cd,...dab->...cab", ginv, low)
    dgamma = (np.einsum("...ecd,...dab->...ecab", dginv, low)
              + np.einsum("...cd,...edab->...ecab", ginv, dlow))
    return gamma, dgamma


def riemann_parts_reference(gamma, dgamma):
    """(D, B1, B2) of R^a_bcd = D + B1 - B2, each quadratic part its own einsum."""
    return (np.einsum("...cadb->...abcd", dgamma) - np.einsum("...dacb->...abcd", dgamma),
            np.einsum("...ace,...edb->...abcd", gamma, gamma),
            np.einsum("...ade,...ecb->...abcd", gamma, gamma))


def flatness_reference(gamma, dgamma):
    """Size of the curvature of a connection, each quadratic part its own einsum,
    normalized by the natural scale of its coefficients (per point for a batch)."""
    riemann = (np.einsum("...cadb->...abcd", dgamma) - np.einsum("...dacb->...abcd", dgamma)
               + np.einsum("...ace,...edb->...abcd", gamma, gamma)
               - np.einsum("...ade,...ecb->...abcd", gamma, gamma))
    g = amax(gamma, 3)
    return amax(riemann, 4) / np.maximum(np.maximum(g * g, amax(dgamma, 4)), 1e-300)


def amax(a, k):
    """Largest |entry| over the last k axes."""
    return np.maximum.reduce(np.abs(a), axis=tuple(range(-k, 0)))


# -- 40-digit scalar curvature of the KN constant-J slice ----------------

@lru_cache(maxsize=None)
def _kn_jslice_third_derivatives():
    sp = pytest.importorskip("sympy")
    u, q, j = sp.symbols("u q j")
    phi = -sp.Rational(1, 4) * (u + sp.sqrt(u**2 - q * u - j**2) - q / 2)
    exprs = [sp.diff(phi, u, 2 - a, q, a) for a in range(3)]
    exprs += [sp.diff(phi, u, 3 - a, q, a) for a in range(4)]
    return sp.lambdify((u, q, j), exprs, "mpmath")


def kn_jslice_scalar_reference(u, q, j):
    """Scalar curvature of kerr_newman_radiant on {j = const} at the float
    point (u, q), to about 40 digits.  For a Hessian metric g = d^2 phi,
    R^a_bcd = -1/4 g^af g^eh (phi_fce phi_hdb - phi_fde phi_hcb) (Shima 2007),
    so the scalar g^bd R^a_bad needs third derivatives only."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        values = _kn_jslice_third_derivatives()(*map(mpmath.mpf, (u, q, j)))
        g = mpmath.matrix([[values[0], values[1]], [values[1], values[2]]])
        gi = g ** -1
        r = range(2)

        def phi3(*axes):
            return values[3 + axes.count(1)]
        scalar = -sum(gi[b, dd] * gi[a, f] * gi[e, h]
                      * (phi3(f, a, e) * phi3(h, dd, b) - phi3(f, dd, e) * phi3(h, a, b))
                      for a, b, dd, e, f, h in product(r, repeat=6)) / 4
        return float(scalar)


# -- total symmetry of one array, one permutation at a time ------------

def symmetry_residual(dg) -> float:
    """Largest |dg - dg.transpose(axes)| over every permutation of the axes,
    normalized by the largest |entry|: the reference for ``codazzi_residual``."""
    dg = np.asarray(dg, dtype=float)
    scale = float(np.max(np.abs(dg))) + _EPS
    worst = 0.0
    for axes in permutations(range(dg.ndim)):
        worst = max(worst, float(np.max(np.abs(dg - dg.transpose(axes)))))
    return worst / scale


# -- involutivity of the kernel distribution ---------------------------

@dataclass
class InvolutivityResult:
    residual: float
    trivial: bool
    kernel_dim: int


def _fd_jacobian(field, point, h):
    """Jacobian of a vector field by 5-point (4th-order) central
    differences."""
    n = point.shape[0]
    jac = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        f_p1 = np.asarray(field(point + step), dtype=float)
        f_m1 = np.asarray(field(point - step), dtype=float)
        f_p2 = np.asarray(field(point + 2 * step), dtype=float)
        f_m2 = np.asarray(field(point - 2 * step), dtype=float)
        jac[:, j] = (-f_p2 + 8 * f_p1 - 8 * f_m1 + f_m2) / (12 * h)
    return jac


def lie_bracket_fd(field_x, field_y, point, h: float) -> np.ndarray:
    """[X, Y] at ``point`` by finite differences of the two vector
    fields (callables point -> vector)."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    x0 = np.asarray(field_x(point), dtype=float)
    y0 = np.asarray(field_y(point), dtype=float)
    jac_x = _fd_jacobian(field_x, point, h)
    jac_y = _fd_jacobian(field_y, point, h)
    return jac_y @ x0 - jac_x @ y0


def complement_residual(vector, span_basis) -> float:
    """Norm fraction of ``vector`` outside the row span of
    ``span_basis``, normalized by the vector norm."""
    vector = np.asarray(vector, dtype=float)
    basis = np.asarray(span_basis, dtype=float)
    q, _ = np.linalg.qr(basis.T)
    residual = vector - q @ (q.T @ vector)
    return float(np.linalg.norm(residual) / (np.linalg.norm(vector) + _EPS))


def involutivity_residual(model: PotentialModel, point, probe_count: int = 3
                          ) -> InvolutivityResult:
    """Finite-difference check that the kernel distribution closes
    under Lie brackets.

    Smooth kernel-spanning fields are built by projecting fixed
    reference vectors onto the pointwise kernel (spectral projection of
    the metric).  Brackets of all pairs are computed by finite
    differences and projected onto the orthogonal complement of the
    kernel at ``point``; the worst normalized leak is returned.
    ``probe_count`` adds that many extra random reference vectors.

    Brackets whose norm sits at the finite-difference noise floor are
    treated as zero (they carry no directional information).
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    mf = hessian_metric(model, point)
    kb = kernel(mf)
    k = kb.basis.shape[0]
    if k < 2:
        return InvolutivityResult(residual=0.0, trivial=True, kernel_dim=k)

    def projector(x):
        m = hessian_metric(model, x)
        lam, vec = np.linalg.eigh(m.g)
        null = np.abs(lam) <= NULL_REL * np.max(np.abs(lam))
        u = vec[:, null]
        return u @ u.T

    references = list(kb.basis)
    if probe_count:
        rng = np.random.default_rng(0)
        for _ in range(probe_count):
            v = rng.standard_normal(point.shape[0])
            references.append(v / np.linalg.norm(v))

    fields = [lambda x, v=v: projector(x) @ v for v in references]
    h = 1e-4 * (1.0 + float(np.linalg.norm(point)))
    noise_floor = 1e-5  # references are unit vectors
    worst = 0.0
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            bracket = lie_bracket_fd(fields[a], fields[b], point, h)
            norm = float(np.linalg.norm(bracket))
            if norm <= noise_floor:
                continue  # indistinguishable from a vanishing bracket
            worst = max(worst, complement_residual(bracket, kb.basis))
    return InvolutivityResult(residual=worst, trivial=False, kernel_dim=k)
