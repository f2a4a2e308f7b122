"""Pointwise structure of the degenerate Hessian metric.

Everything here is a pure function of (model, point): the metric and its
first coordinate derivatives from one order-3 jet, the kernel of the induced
flat map, the Euler defect and Gibbs-Duhem residual that characterize
extensivity, the Codazzi symmetry residual (its vanishing also makes the
kernel distribution involutive), and positive semi-definiteness.
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
    """Metric g_ij = d_i d_j Phi at a point, its derivatives dg[k, i, j] = d_k g_ij,
    and the potential's value and gradient from the same jet (a leading batch
    axis on each for a batch)."""

    point: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    potential: float
    gradient: np.ndarray

    def at(self, i: int) -> "MetricField":
        """Point ``i`` of a batch, each array a C-contiguous copy: every
        diagnostic then rounds as for that point alone."""
        point, g, dg, gradient = (np.ascontiguousarray(a[i]) for a in (
            self.point, self.g, self.dg, self.gradient))
        return MetricField(point, g, dg, float(self.potential[i]), gradient)

    @property
    def euler_defect(self) -> float:
        """:func:`euler_defect` at a single point, from the same jet."""
        return _defect(self.point, self.potential, self.gradient)


@dataclass
class KernelBasis:
    rank: int
    basis: np.ndarray       # (kernel_dim, n) orthonormal rows, canonical sign
    eigenvalues: np.ndarray  # ascending spectrum of g


def hessian_metric(model: PotentialModel, point) -> MetricField:
    """Assemble the metric field from a single order-3 jet of the potential at
    a point (n,) or a batch (P, n), each point's tensors bit for bit, and equal
    to the lower slots of an order-4 jet (no diagnostic reads a fourth
    derivative).  A batch keeps its axis innermost in memory (``g`` has strides
    (8, 8Pn, 8P)): :meth:`MetricField.at` reads one point.  Raises DomainError
    outside the model domain."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    model.require_domain(point)
    jet = model.potential_jet(point, order=3)
    g, dg = jet.hessian(), jet.third_tensor()
    require_finite("metric field", g, dg)
    return MetricField(point=point, g=g, dg=dg, potential=jet.value, gradient=jet.gradient())


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
    return _defect(point, jet.value, jet.gradient())


def _defect(point, potential, gradient) -> float:
    return float(point @ gradient - potential)


def gibbs_duhem_residual(mf: MetricField) -> float:
    """Normalized size of g applied to the radiant vector.  Zero (to roundoff)
    exactly when the radiant direction is null; DomainError where it overflows."""
    rho = radiant_field(mf.point)
    residual = np.linalg.norm(mf.g @ rho) / (
        np.linalg.norm(mf.g) * np.linalg.norm(rho) + _EPS)
    require_finite("Gibbs-Duhem residual", residual)
    return float(residual)


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
    """('psd' | 'indefinite', smallest eigenvalue), from ``eigvalsh``: it rounds
    otherwise than the ``eigh`` of :func:`kernel`, so a null eigenvalue differs
    (ideal gas at 1,1,1: 2.9e-17 here, -3.7e-16 as ``kernel``'s first)."""
    eigenvalues = np.linalg.eigvalsh(mf.g)
    lam_min = float(eigenvalues[0])
    lam_max = float(np.max(np.abs(eigenvalues)))
    verdict = "psd" if lam_min >= -tol_rel * lam_max else "indefinite"
    return verdict, lam_min
