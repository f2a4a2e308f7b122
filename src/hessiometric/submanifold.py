"""Linear slices of the state space and their intrinsic geometry.

A slice {x : Bx = c} in a thermodynamic chart is charted by its free
coordinates z: x = J z + B^+ c, where J is the identity on the coordinates
that column-pivoted elimination of B leaves free and solves Bx = c for the
pivot ones.  The pulled-back potential is again a Hessian potential in z,
which gives the induced metric, its Levi-Civita connection and curvature
(the Ruppeiner-style scalar), the Legendre-dual potential and dual
coordinates, and the flatness of the dual connection, each read from the
pullback of a point or a batch (P, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .errors import (DegenerateSliceError, DomainError, RankDeficientError,
                     SingularDualChartError)
from .geometry import _EPS, _amax, _dot, hessian_metric
from .jets import _item
from .models import PotentialModel

DEGENERATE_REL = 1e-9  # lambda_min / lambda_max of a slice metric counted singular
MISMATCH_REL = 1e-8    # relative gap of the two dual potentials that flags a mismatch


@dataclass(frozen=True)
class SliceSpec:
    """Linear constraints Bx = c and their chart x = jacobian @ z + offset."""

    constraints: np.ndarray  # B, (n-r) x n
    constants: np.ndarray    # c, (n-r,)
    jacobian: np.ndarray     # dx/dz, n x r: the identity on the free rows, B @ J = 0
    trailing: np.ndarray     # B^+ = dx/dc, n x (n-r)
    offset: np.ndarray       # B^+ c, the slice's point nearest the origin (z = 0)

    @property
    def slice_dim(self) -> int:
        return self.constraints.shape[1] - self.constraints.shape[0]

    def embed(self, z) -> np.ndarray:
        """Ambient point(s) of z, (r,) or (P, r), each rounded as alone."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return _dot(self.jacobian, z[..., None, :]) + self.offset


def make_slice(B, c) -> SliceSpec:
    """Build a slice spec from constraints Bx = c.

    Greedy column-pivoted elimination (largest residual norm first, as
    LAPACK's pivoted QR) picks the pivot coordinates; the others are free and
    chart the slice, so axis-aligned constraints keep them verbatim.  Exact
    ties of an integer B with several rows may break differently from LAPACK.
    A pivot residual <= 1e-12 |B|_F is a RankDeficientError; non-finite B, c:
    DomainError.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not (np.isfinite(B).all() and np.isfinite(c).all()):
        raise DomainError("slice constraints and constants must be finite")
    m, n = B.shape
    if c.shape != (m,):
        raise ValueError(f"constants have shape {c.shape}, expected ({m},)")
    if m >= n:
        raise RankDeficientError("constraints leave no slice dimensions")

    pivots, rest, tiny = [], B.copy(), 1e-12 * np.linalg.norm(B)
    for _ in range(m):
        pivots.append(int(np.argmax(np.sum(rest * rest, axis=0))))
        norm = np.linalg.norm(rest[:, pivots[-1]])
        if norm <= tiny:
            raise RankDeficientError("constraint matrix is rank-deficient")
        q = rest[:, pivots[-1]] / norm
        rest -= np.outer(q, q @ rest)
    free = [j for j in range(n) if j not in pivots]
    jacobian = np.zeros((n, n - m))
    jacobian[free] = np.eye(n - m)
    # 0.0 - x, not -x: a zero stays +0.0, which expr.environment folds
    jacobian[pivots] = 0.0 - np.linalg.solve(B[:, pivots], B[:, free])
    trailing = np.linalg.pinv(B)
    return SliceSpec(constraints=B, constants=c, jacobian=jacobian, trailing=trailing,
                     offset=trailing @ c)


# -- pulled-back potential and metric ----------------------------------

@dataclass
class PullbackData:
    """Data of the pulled-back potential at a slice point, from a jet of order
    2 to 4 (``dgbar`` is None below order 3, ``d2gbar`` below order 4).

    Index conventions: dgbar[k, a, b] = d_k gbar_ab and
    d2gbar[l, k, a, b] = d_l d_k gbar_ab in slice coordinates.
    """

    slice: SliceSpec
    z: np.ndarray
    x: np.ndarray
    potential: float          # pulled-back potential value(s)
    gradient: np.ndarray      # d(potential)/dz
    gbar: np.ndarray
    dgbar: Optional[np.ndarray]
    d2gbar: Optional[np.ndarray]
    model: PotentialModel = field(repr=False)

    @property
    def two_path_residual(self) -> float:
        """On-demand cross-check: relative gap between ``gbar`` and the
        chain rule A^T g A on the ambient metric (one more evaluation)."""
        a = self.slice.jacobian
        gbar_chain = a.T @ hessian_metric(self.model, self.x).g @ a
        return float(np.max(np.abs(self.gbar - gbar_chain))
                     / (np.max(np.abs(self.gbar)) + _EPS))


def pullback_metric(model: PotentialModel, sl: SliceSpec, z, order: int = 4) -> PullbackData:
    """Induced metric and its z-derivatives at a slice point (or a batch z
    of shape (P, r)), from one jet of the pulled-back potential of the given
    order (2 for the metric alone, 4 for :func:`curvature`).
    Raises DomainError off the model domain.  ``two_path_residual`` of the
    result is an on-demand chain-rule cross-check against the ambient metric."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    x = sl.embed(z)
    model.require_domain(x)
    return _pullback(model, sl, z, x, order)


def _pullback(model: PotentialModel, sl: SliceSpec, z, x, order: int = 4) -> PullbackData:
    """:func:`pullback_metric` at points x = embed(z) known to be inside
    the domain (no domain check)."""
    jet = model.potential_jet(x, order, sl.jacobian)  # its derivatives are finite
    return PullbackData(slice=sl, z=z, x=x, potential=jet.value, gradient=jet.gradient(),
                        gbar=jet.hessian(), dgbar=jet.third_tensor() if order > 2 else None,
                        d2gbar=jet.fourth_tensor() if order > 3 else None, model=model)


# -- Levi-Civita connection and curvature ------------------------------

@dataclass
class Connection:
    """Levi-Civita connection of the induced metric, from its spectrum
    (one ``eigvalsh``) and its inverse (one ``inv``): gamma[c, a, b] = Gamma^c_ab and
    dgamma[e, c, a, b] = d_e Gamma^c_ab.  ``singular`` marks degenerate points
    of a batch, computed with the identity in place of their metric."""

    eigenvalues: np.ndarray  # ascending spectrum of gbar
    ginv: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    singular: np.ndarray


def connection(pb: PullbackData) -> Connection:
    """Connection of the induced metric g = d^2 phi: its lowered symbols are half
    phi's third derivatives, their derivatives half the fourth.  Raises
    DegenerateSliceError where lambda_min <= DEGENERATE_REL * lambda_max, i.e. where
    the slice is not transversal to the kernel (a batch flags ``singular``)."""
    lam = np.linalg.eigvalsh(pb.gbar)
    singular = lam[..., 0] <= DEGENERATE_REL * _amax(lam, 1)
    if singular.ndim == 0 and singular:
        raise DegenerateSliceError(
            f"pulled-back metric is singular at z={pb.z.tolist()} "
            f"(eigenvalues {lam.tolist()})")
    ginv = np.linalg.inv(pb.gbar if singular.ndim == 0 else
                         np.where(singular[..., None, None], np.eye(len(lam.T)), pb.gbar))
    # each entry is one jet slot, so this equals the general formula's (t + t) - t
    # for finite |t| <= DBL_MAX/2 up to the sign of zero, which the contractions drop
    low, dlow = 0.5 * pb.dgbar, 0.5 * pb.d2gbar
    dginv = -np.einsum("...ca,...eab,...bd->...ecd", ginv, pb.dgbar, ginv)
    gamma = np.einsum("...cd,...dab->...cab", ginv, low)
    dgamma = (np.einsum("...ecd,...dab->...ecab", dginv, low)
              + np.einsum("...cd,...edab->...ecab", ginv, dlow))
    return Connection(eigenvalues=lam, ginv=ginv, gamma=gamma, dgamma=dgamma,
                      singular=singular)


def levi_civita(pb: PullbackData) -> np.ndarray:
    """gamma[c, a, b] = Gamma^c_ab (see :func:`connection`)."""
    return connection(pb).gamma


def christoffel_derivatives(pb: PullbackData) -> np.ndarray:
    """dgamma[e, c, a, b] = d_e Gamma^c_ab (see :func:`connection`)."""
    return connection(pb).dgamma


def _riemann_parts(gamma: np.ndarray, dgamma: np.ndarray):
    """Curvature tensor R[a, b, c, d] = R^a_bcd = (D + B1) - B2 of a connection
    from its coefficients and their coordinate derivatives, as (D, B1, B2).
    B2[a, b, c, d] = Gamma^a_de Gamma^e_cb is B1[a, b, d, c], the same products."""
    b1 = np.einsum("...ace,...edb->...abcd", gamma, gamma)
    return (np.einsum("...cadb->...abcd", dgamma) - np.einsum("...dacb->...abcd", dgamma),
            b1, b1.swapaxes(-1, -2))


@dataclass
class CurvatureReport:
    """Curvature of the induced metric at a slice point (arrays for a batch);
    ``dual_flatness`` and ``residuals`` (antisymmetry, Bianchi, metric
    compatibility) are computed when read."""

    connection: Connection
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    pullback: PullbackData = field(repr=False)

    @property
    def dual_flatness(self):
        """Curvature residual of the dual connection 2*Gamma, flat in the adapted
        affine chart (zero in exact arithmetic), from the Riemann parts of 2*Gamma
        (products of Gamma scaled by 4 would round apart where they underflow)."""
        gamma, dgamma = 2.0 * self.connection.gamma, 2.0 * self.connection.dgamma
        d, b1, b2 = _riemann_parts(gamma, dgamma)
        g = _amax(gamma, 3)
        scale = np.maximum(np.maximum(g * g, _amax(dgamma, 4)), _EPS)
        return _item(_amax(d + b1 - b2, 4) / scale)

    @property
    def residuals(self) -> Mapping[str, float]:
        riemann, gamma, pb = self.riemann, self.connection.gamma, self.pullback
        r_scale = _amax(riemann, 4) + _EPS
        antisym = _amax(riemann + riemann.swapaxes(-1, -2), 4) / r_scale
        bianchi = _amax(riemann + np.einsum("...adbc->...abcd", riemann)
                        + np.einsum("...acdb->...abcd", riemann), 4) / r_scale
        nabla_g = (pb.dgbar
                   - np.einsum("...dca,...db->...cab", gamma, pb.gbar)
                   - np.einsum("...dcb,...ad->...cab", gamma, pb.gbar))
        compat = _amax(nabla_g, 3) / (_amax(pb.dgbar, 3) + _EPS)
        return {"antisymmetry": _item(antisym), "bianchi": _item(bianchi),
                "metric_compatibility": _item(compat)}


def curvature(pb: PullbackData) -> CurvatureReport:
    """Riemann, Ricci and scalar curvature of the induced metric at a
    slice point, and, when read, the dual flatness (arrays for a batch,
    meaningless where ``connection.singular``)."""
    conn = connection(pb)
    d, b1, b2 = _riemann_parts(conn.gamma, conn.dgamma)
    riemann = d + b1 - b2
    ricci = np.einsum("...abad->...bd", riemann)
    scalar = np.einsum("...bd,...bd->...", conn.ginv, ricci)
    return CurvatureReport(connection=conn, riemann=riemann, ricci=ricci, scalar=_item(scalar),
                           pullback=pb)


def dual_flatness_residual(model: PotentialModel, sl: SliceSpec, z) -> float:
    """:attr:`CurvatureReport.dual_flatness` at a slice point."""
    return curvature(pullback_metric(model, sl, z)).dual_flatness


# -- Legendre duality --------------------------------------------------

@dataclass
class DualPotential:
    value: float            # z . grad - potential (Legendre formula)
    extensive_form: float   # minus the constrained part of the ambient
                            # Euler pairing; equal for extensive models
    mismatch: bool


def dual_potential(pb: PullbackData) -> DualPotential:
    """Legendre-dual potential of the slice at a slice point (arrays for a batch),
    from the transform of the pulled-back potential and from the extensivity
    shortcut; a mismatch between the two, above MISMATCH_REL relative to
    1 + |value|, flags a non-extensive model."""
    sl = pb.slice
    # B^+ = dx/dc reads the c-derivative of the ambient gradient
    grad_x = pb.model.potential_jet(pb.x, 1).gradient()
    value = _item(_dot(pb.z, pb.gradient) - pb.potential)
    extensive_form = _item(-_dot(sl.constants, _dot(sl.trailing.T, grad_x[..., None, :])))
    mismatch = abs(value - extensive_form) > MISMATCH_REL * (1.0 + abs(value))
    return DualPotential(value=value, extensive_form=extensive_form,
                         mismatch=mismatch)


def dual_coordinates(model: PotentialModel, sl: SliceSpec, z) -> np.ndarray:
    """Gradient of the pulled-back potential: the dual affine chart of
    the dual Hessian structure (per point for a batch z of shape (P, r))."""
    x = sl.embed(z)
    model.require_domain(x)
    return model.potential_jet(x, 1, sl.jacobian).gradient()


def legendre_invariance_residual(pb: PullbackData) -> float:
    """Check that the induced metric is the Hessian of the dual
    potential in the dual chart (per point for a batch).

    The Jacobian of z -> dual coordinates is taken by 5-point central differences
    along each axis (steps 1e-4·(1+|z|) and twice that: truncation well below the
    comparison tolerances), one :func:`dual_coordinates` walk over the stencils of
    every point, which must lie in the domain; the dual-chart Hessian of the dual
    potential and the transformed metric are compared entrywise.
    """
    z, r = pb.z, pb.slice.slice_dim
    h = 1e-4 * (1.0 + np.abs(z))
    stencil = z[..., None, :] + np.multiply.outer([2, 1, -1, -2], h[..., None, :] * np.eye(r))
    try:
        d = dual_coordinates(pb.model, pb.slice, stencil.reshape(-1, r)).reshape(stencil.shape)
    except DomainError:  # name the user's point, not a stencil point
        raise DomainError(f"the Jacobian's stencil around z={z.tolist()}, at steps "
                          "±1e-4·(1+|z|) and twice that, left the domain") from None
    jac = ((-d[0] + 8 * d[1] - 8 * d[2] + d[3]) / (12 * h[..., :, None])).swapaxes(-1, -2)
    singular = np.linalg.cond(jac) > 1e12
    if singular.any():
        raise SingularDualChartError("dual-coordinate Jacobian is singular at "
                                     f"z={np.atleast_2d(z)[np.atleast_1d(singular)][0].tolist()}")
    # gradient of the dual potential in the dual chart is z itself, so its
    # Hessian is jac_inv, the Jacobian of z as a function of the dual chart
    jac_inv = np.linalg.inv(jac)
    metric_dual_chart = np.einsum("...ba,...bc,...cd->...ad", jac_inv, pb.gbar, jac_inv)
    return _item(_amax(jac_inv - metric_dual_chart, 2) / (_amax(jac_inv, 2) + _EPS))
