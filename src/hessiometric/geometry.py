"""Pointwise structure of the degenerate Hessian metric.

Everything here is a pure function of (model, point): the metric and its
first coordinate derivatives from one order-3 jet, the kernel of the induced
flat map, the Euler defect and Gibbs-Duhem residual that characterize
extensivity, the Codazzi symmetry residual (its vanishing also makes the
kernel distribution involutive), and positive semi-definiteness, read off the
kernel's spectrum of g, each at a point (n,) or per point of a batch (P, n),
bit for bit as at that point alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DomainError
from .jets import _item
from .models import PotentialModel

_EPS = 1e-300
NULL_REL = 1e-9  # an eigenvalue at most this fraction of the largest counts as null


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

    @property
    def euler_defect(self):
        """:func:`euler_defect` at the point(s), from the same jet."""
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
    (8, 8Pn, 8P)).  Raises DomainError outside the model domain."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    model.require_domain(point)
    jet = model.potential_jet(point, order=3)  # its derivatives are finite
    return MetricField(point=point, g=jet.hessian(), dg=jet.third_tensor(),
                       potential=jet.value, gradient=jet.gradient())


def _amax(a: np.ndarray, k: int):
    """Largest |entry| over the last k axes (per point for a batch)."""
    return np.maximum.reduce(np.abs(a), axis=tuple(range(-k, 0)))


def _dot(a, b):
    """Sum of a[..., i] * b[..., i] over the last axis, added term by term in
    index order, so a point rounds the same alone or in a batch on any BLAS."""
    terms = np.multiply(a, b)
    return sum((terms[..., i] for i in range(1, terms.shape[-1])), terms[..., 0])


def kernel(mf: MetricField):
    """Eigendecomposition-based kernel of the flat map at a point, or one
    :class:`KernelBasis` per point of a batch, from one ``eigh``, one null mask
    and one sign-fix pass over the null rows of all points.

    An eigenvalue counts as zero iff |lambda| <= NULL_REL * lambda_max.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(np.ascontiguousarray(mf.g))
    size = np.abs(eigenvalues)
    lam_max = size.max(axis=-1, keepdims=True)
    null = (size <= NULL_REL * lam_max) | (lam_max == 0.0)
    # the null rows of every point, in order (eigh returns ascending
    # eigenvalues); each row's first entry of magnitude above 1e-14 is made positive
    basis = eigenvectors.swapaxes(-1, -2)[null]
    for row, entries in zip(basis, basis.tolist()):
        if next((x for x in entries if abs(x) > 1e-14), 0.0) < 0:
            row *= -1.0
    if null.ndim == 1:
        return KernelBasis(rank=len(null) - len(basis), basis=basis, eigenvalues=eigenvalues)
    ends = np.cumsum(null.sum(axis=1)).tolist()
    return [KernelBasis(rank=len(lam) - (stop - start), basis=basis[start:stop], eigenvalues=lam)
            for start, stop, lam in zip([0] + ends, ends, eigenvalues)]


def euler_defect(model: PotentialModel, point):
    """rho(Phi) - Phi at a point (per point for a batch).  Constant over the
    domain iff the differential of the potential is extensive; for the
    thermodynamic builtins the constant is the entropy offset."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    model.require_domain(point)
    jet = model.potential_jet(point, order=1)
    return _defect(point, jet.value, jet.gradient())


def _defect(point, potential, gradient):
    return _item(_dot(point, gradient) - potential)


def gibbs_duhem_residual(mf: MetricField):
    """Normalized size of g applied to the radiant vector, whose components are
    the point (per point for a batch), with Euclidean and Frobenius norms.  Zero
    (to roundoff) exactly when the radiant direction is null; DomainError where
    it overflows."""
    rho, g = mf.point, mf.g.reshape(mf.g.shape[:-2] + (-1,))  # g's entries in one row
    g_rho = _dot(mf.g, rho[..., None, :])
    residual = np.sqrt(_dot(g_rho, g_rho)) / (np.sqrt(_dot(g, g)) * np.sqrt(_dot(rho, rho)) + _EPS)
    if not np.isfinite(residual).all():
        raise DomainError("Gibbs-Duhem residual is not finite")
    return _item(residual)


def codazzi_residual(mf: MetricField):
    """Total-symmetry defect of dg[k, i, j] = d_k g_ij, normalized by its
    largest entry (per point for a batch).  Exactly 0.0 for a metric field
    from :func:`hessian_metric`: it reads each entry of ``dg`` from one jet slot."""
    transposes = np.stack([np.einsum("...ijk->..." + "".join(p), mf.dg)
                           for p in permutations("ijk")])
    return _item(_amax(mf.dg - transposes, 3).max(axis=0) / (_amax(mf.dg, 3) + _EPS))


def psd_check(kb: KernelBasis | list):
    """('psd' | 'indefinite', lambda_min = ``eigenvalues[0]``) of g, read off the
    spectrum that :func:`kernel` returned as ``kb``: a :class:`KernelBasis`, or the
    list of a batch, which gives a list of verdicts and an array."""
    eigenvalues = np.array([k.eigenvalues for k in kb]) if isinstance(kb, list) \
        else kb.eigenvalues
    lam_min = eigenvalues[..., 0]
    psd = lam_min >= -NULL_REL * _amax(eigenvalues, 1)
    return np.where(psd, "psd", "indefinite").tolist(), _item(lam_min)
