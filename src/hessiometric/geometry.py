"""Pointwise structure of the degenerate Hessian metric.

Everything here is a pure function of (model, point): the metric and its
coordinate derivatives from one order-4 jet, the kernel of the induced
flat map, the Euler defect and Gibbs-Duhem residual that characterize
extensivity, the Codazzi symmetry residual, positive semi-definiteness,
and a finite-difference involutivity test for the kernel distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError
from .models import PotentialModel

_EPS = 1e-300


@dataclass
class MetricField:
    """Metric g_ij = d_i d_j Phi at a point, with its first and second
    coordinate derivatives (index convention: dg[k, i, j] = d_k g_ij,
    d2g[l, k, i, j] = d_l d_k g_ij)."""

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


@dataclass
class KernelBasis:
    rank: int
    basis: np.ndarray       # (kernel_dim, n) orthonormal rows, canonical sign
    eigenvalues: np.ndarray  # ascending spectrum of g


def hessian_metric(model: PotentialModel, point) -> MetricField:
    """Assemble the metric field from a single order-4 jet of the
    potential.  Raises DomainError outside the model domain."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    model.require_domain(point)
    jet = model.potential_jet(point, order=4)
    g = jet.hessian()
    third = jet.third_tensor()
    fourth = jet.fourth_tensor()
    require_finite("metric field", g, third, fourth)
    return MetricField(point=point, g=g, dg=third, d2g=fourth)


def require_finite(what: str, *arrays) -> None:
    """Guard for numpy.linalg, which fails or returns NaN on inf/NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError(f"{what} is not finite")


def _canonical_sign(vectors):
    """Flip each row so its first component of nonzero magnitude is
    positive."""
    out = vectors.copy()
    for row in out:
        for x in row:
            if abs(x) > 1e-14:
                if x < 0:
                    row *= -1.0
                break
    return out


def kernel(mf: MetricField, tol_rel: float = 1e-9) -> KernelBasis:
    """Eigendecomposition-based kernel of the flat map at a point.

    An eigenvalue counts as zero iff |lambda| <= tol_rel * lambda_max.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(mf.g)
    lam_max = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    if lam_max == 0.0:
        null = np.ones(len(eigenvalues), dtype=bool)
    else:
        null = np.abs(eigenvalues) <= tol_rel * lam_max
    # eigh returns ascending eigenvalues, so the rows are already ordered
    basis = _canonical_sign(eigenvectors[:, null].T)
    n = mf.g.shape[0]
    return KernelBasis(rank=n - int(np.count_nonzero(null)),
                       basis=basis,
                       eigenvalues=eigenvalues)


def radiant_field(point) -> np.ndarray:
    """Components of the radiant vector in its own chart: the point."""
    return np.atleast_1d(np.asarray(point, dtype=float)).copy()


def euler_defect(model: PotentialModel, point) -> float:
    """rho(Phi) - Phi at a point.  Constant over the domain iff the
    differential of the potential is extensive; for the thermodynamic
    builtins the constant is the entropy offset."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    model.require_domain(point)
    jet = model.potential_jet(point, order=1)
    return float(point @ jet.gradient() - jet.value)


def gibbs_duhem_residual(mf: MetricField) -> float:
    """Normalized size of g applied to the radiant vector.  Zero (to
    roundoff) exactly when the radiant direction is null."""
    rho = radiant_field(mf.point)
    num = np.linalg.norm(mf.g @ rho)
    den = np.linalg.norm(mf.g) * np.linalg.norm(rho) + _EPS
    return float(num / den)


def codazzi_residual(mf: MetricField) -> float:
    """Total-symmetry defect of the third-derivative array, normalized
    by its largest entry."""
    return symmetry_residual(mf.dg)


def symmetry_residual(dg) -> float:
    dg = np.asarray(dg, dtype=float)
    scale = float(np.max(np.abs(dg))) + _EPS
    worst = 0.0
    for axes in permutations(range(dg.ndim)):
        worst = max(worst, float(np.max(np.abs(dg - dg.transpose(axes)))))
    return worst / scale


def psd_check(mf: MetricField, tol_rel: float = 1e-9):
    """('psd' | 'indefinite', smallest eigenvalue)."""
    eigenvalues = np.linalg.eigvalsh(mf.g)
    lam_min = float(eigenvalues[0])
    lam_max = float(np.max(np.abs(eigenvalues)))
    verdict = "psd" if lam_min >= -tol_rel * lam_max else "indefinite"
    return verdict, lam_min


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


def involutivity_residual(model: PotentialModel, point, probe_count: int = 3,
                          tol_rel: float = 1e-9) -> InvolutivityResult:
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
    kb = kernel(mf, tol_rel)
    k = kb.basis.shape[0]
    if k < 2:
        return InvolutivityResult(residual=0.0, trivial=True, kernel_dim=k)

    def projector(x):
        m = hessian_metric(model, x)
        lam, vec = np.linalg.eigh(m.g)
        null = np.abs(lam) <= tol_rel * np.max(np.abs(lam))
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
