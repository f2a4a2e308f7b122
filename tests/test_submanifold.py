import json
import math
from itertools import product

import numpy as np
import pytest

from helpers import (fd_scalar_curvature, metric_ideal_gas,
                     metric_kn_radiant_jslice, sample_points)
from hessiometric import BUILTIN_NAMES, builtin, expr, jets, load_model
from hessiometric.errors import (DegenerateSliceError, DomainError,
                                 RankDeficientError)
from hessiometric.submanifold import (christoffel_derivatives, curvature,
                                      dual_coordinates,
                                      dual_flatness_residual, dual_potential,
                                      flatness_residual,
                                      legendre_invariance_residual,
                                      levi_civita, make_slice, pullback_metric)
from hessiometric.submanifold import _pullback_jet


def random_interior_slice(rng, model, ndrop=1, box=(0.8, 1.5)):
    """Random full-rank slice through a random interior point; returns
    (slice, z at that point)."""
    n = model.dim
    B = rng.standard_normal((ndrop, n))
    x0 = rng.uniform(box[0], box[1], size=n)
    sl = make_slice(B, B @ x0)
    return sl, sl.project(x0)


# -- slice construction ------------------------------------------------

def test_axis_slice_keeps_coordinates():
    sl = make_slice([0, 0, 1], [1])
    assert np.allclose(sl.chart, np.eye(3))
    assert np.allclose(sl.embed([1.3, 0.7]), [1.3, 0.7, 1.0])


def test_sum_slice_adapted_chart():
    sl = make_slice([1, 1, 1], [3])
    assert sl.slice_dim == 2
    assert np.allclose(sl.chart[2], [1, 1, 1])
    x = sl.embed([0.1, -0.2])
    assert np.sum(x) == pytest.approx(3.0)


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficientError):
        make_slice([[1, 0, 0], [1, 0, 0]], [1, 1])
    with pytest.raises(RankDeficientError):
        make_slice([[1, 0], [0, 1]], [1, 1])  # no slice dimensions left


def test_embedding_jacobian_annihilated_by_constraints():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        B = rng.standard_normal((m, n))
        sl = make_slice(B, rng.standard_normal(m))
        assert np.max(np.abs(B @ sl.jacobian)) <= 1e-12


def test_chart_last_rows_equal_constraints_exactly():
    rng = np.random.default_rng(37)
    B = rng.standard_normal((2, 5))
    sl = make_slice(B, [0.4, -0.1])
    assert np.array_equal(sl.chart[3:], B)


def _lapack_chart(B):
    """The adapted chart as built from scipy's QR and pivoted QR."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m, n = B.shape
    q_full, _ = scipy_linalg.qr(B.T)
    q_rows = q_full[:, :m]
    pivots = scipy_linalg.qr(B, pivoting=True)[2]
    free = [j for j in range(n) if j not in set(pivots[:m])][: n - m]
    rows = np.empty((n - m, n))
    for i, j in enumerate(free):
        e = np.zeros(n)
        e[j] = 1.0
        rows[i] = e - q_rows @ (q_rows.T @ e)
    if np.linalg.matrix_rank(rows, tol=1e-10) < n - m:
        rows = q_full[:, m:].T
    chart = np.vstack([rows, B])
    return chart, np.linalg.inv(chart)


def test_adapted_chart_matches_lapack_pivoted_qr():
    slices = [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, -1, 0], [1, 1, 0],
              [0.3, 0.7, 0.2], [1, 2, 3], [0, 1],
              [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]
    rng = np.random.default_rng(31)  # Gaussian constraints as drawn above
    for _ in range(200):
        n = int(rng.integers(2, 9))
        slices.append(rng.standard_normal((int(rng.integers(1, n)), n)))
    for B in slices:
        sl = make_slice(B, np.ones(np.atleast_2d(B).shape[0]))
        chart, chart_inv = _lapack_chart(B)
        assert np.array_equal(sl.chart, chart)
        assert np.array_equal(sl.chart_inv, chart_inv)


def test_non_finite_slice_rejected():
    for B, c in (([np.inf, 0, 1], [1]), ([np.nan, 0, 1], [1]),
                 ([0, 0, 1], [np.inf])):
        with pytest.raises(DomainError):
            make_slice(B, c)


# -- pullback ----------------------------------------------------------

def test_pullback_dn_slice_block():
    sl = make_slice([0, 0, 1], [1])
    pb = pullback_metric(builtin("ideal_gas"), sl, [1, 1])
    assert np.allclose(pb.gbar, np.diag([1.5, 1.0]), atol=1e-12)
    assert pb.two_path_residual <= 1e-11


def test_pullback_du_slice_block():
    sl = make_slice([1, 0, 0], [1])
    pb = pullback_metric(builtin("ideal_gas"), sl, [1, 1])
    assert np.allclose(pb.gbar, [[1, -1], [-1, 2.5]], atol=1e-12)


def test_pullback_one_dim_slice_positive():
    sl = make_slice([[1, 0, 0], [0, 1, 0]], [1, 1])
    pb = pullback_metric(builtin("ideal_gas"), sl, [1.2])
    assert pb.gbar.shape == (1, 1)
    assert pb.gbar[0, 0] > 0


def test_two_path_agreement_random_slices():
    rng = np.random.default_rng(41)
    for name in ("ideal_gas", "paramagnet"):
        model = builtin(name)
        for _ in range(10):
            sl, z = random_interior_slice(rng, model)
            pb = pullback_metric(model, sl, z)
            assert pb.two_path_residual <= 1e-11


def test_transversality_iff_nondegenerate():
    model = builtin("ideal_gas")
    # tangent to the radiant ray through (1,1,1): contains the kernel
    B = np.array([[1.0, -1.0, 0.0]])
    sl = make_slice(B, [0.0])
    pb = pullback_metric(model, sl, sl.project(np.ones(3)))
    with pytest.raises(DegenerateSliceError):
        levi_civita(pb)
    # generic slice: strictly positive spectrum
    sl_ok = make_slice([0, 0, 1], [1])
    pb_ok = pullback_metric(model, sl_ok, [1, 1])
    assert np.linalg.eigvalsh(pb_ok.gbar)[0] > 0
    levi_civita(pb_ok)


# -- Levi-Civita and curvature -----------------------------------------

def test_flat_fixture_zero_christoffels():
    gamma = np.zeros((2, 2, 2))
    dgamma = np.zeros((2, 2, 2, 2))
    assert flatness_residual(gamma, dgamma) == 0.0


def test_one_dim_slice_christoffel_closed_form():
    # single Christoffel is half the log-derivative of the metric
    sl = make_slice([[1, 0, 0], [0, 1, 0]], [1, 1])
    model = builtin("ideal_gas")
    z = np.array([1.3])
    pb = pullback_metric(model, sl, z)
    gamma = levi_civita(pb)
    expected = 0.5 * pb.dgbar[0, 0, 0] / pb.gbar[0, 0]
    assert gamma[0, 0, 0] == pytest.approx(expected, rel=1e-12)


def test_dn_slice_christoffel_value():
    sl = make_slice([0, 0, 1], [1])
    pb = pullback_metric(builtin("ideal_gas"), sl, [1, 1])
    gamma = levi_civita(pb)
    assert gamma[0, 0, 0] == pytest.approx(-1.0, rel=1e-12)


def test_one_dim_slices_exactly_flat():
    model = builtin("ideal_gas")
    for rows, consts in ([[[1, 0, 0], [0, 1, 0]], [1, 1]],
                         [[[0, 1, 0], [0, 0, 1]], [2, 1]]):
        sl = make_slice(rows, consts)
        pb = pullback_metric(model, sl, [1.2])
        report = curvature(pb)
        assert report.scalar == 0.0


def test_dn_slice_flat_product_metric():
    sl = make_slice([0, 0, 1], [1])
    model = builtin("ideal_gas")
    for z in np.array([[1, 1], [0.5, 2], [2, 0.5], [1.7, 1.3]]):
        report = curvature(pullback_metric(model, sl, z))
        assert abs(report.scalar) <= 1e-8


def test_du_slice_curvature_matches_fd_oracle():
    model = builtin("ideal_gas")
    sl = make_slice([1, 0, 0], [1])
    c = 1.5

    def gbar_fn(z):
        return metric_ideal_gas([1.0, z[0], z[1]], c=c)[1:, 1:]

    for z in np.array([[1, 1], [0.8, 1.2], [1.4, 0.7]]):
        report = curvature(pullback_metric(model, sl, z))
        oracle = fd_scalar_curvature(gbar_fn, z)
        # this slice is flat, so the oracle only returns FD noise; compare
        # with an absolute floor on top of the relative tolerance
        assert report.scalar == pytest.approx(oracle, rel=1e-6, abs=1e-8)


def test_curved_slice_matches_fd_oracle():
    # constant-momentum slice of the radiant-chart black-hole model:
    # genuinely curved, so this exercises the full curvature pipeline
    model = builtin("kerr_newman_radiant")
    j0 = 0.25
    sl = make_slice([0, 0, 1], [j0])

    def gbar_fn(z):
        return metric_kn_radiant_jslice(z, j0)

    for z in np.array([[1.0, 0.1], [1.5, 0.2], [2.0, 0.3]]):
        pb = pullback_metric(model, sl, z)
        assert np.allclose(pb.gbar, gbar_fn(z), rtol=1e-11)
        report = curvature(pb)
        oracle = fd_scalar_curvature(gbar_fn, z)
        assert abs(report.scalar) > 1e-2
        assert report.scalar == pytest.approx(oracle, rel=1e-6)


def test_curvature_structural_residuals():
    rng = np.random.default_rng(43)
    model = builtin("paramagnet")
    sl = make_slice([0, 0, 1], [1])
    for _ in range(10):
        z = np.array([rng.uniform(0.7, 1.6), rng.uniform(-0.4, 0.4)])
        report = curvature(pullback_metric(model, sl, z))
        assert report.residuals["antisymmetry"] <= 1e-10
        assert report.residuals["bianchi"] <= 1e-9
        assert report.residuals["metric_compatibility"] <= 1e-10


def test_christoffel_identity_all_indices_down():
    # on an affine slice chart the lowered Christoffels are half the
    # third derivatives of the pulled-back potential
    model = builtin("paramagnet")
    sl = make_slice([0, 0, 1], [1.2])
    pb = pullback_metric(model, sl, [1.1, 0.2])
    gamma = levi_civita(pb)
    lowered = np.einsum("cd,dab->cab", pb.gbar, gamma)
    assert np.allclose(lowered, 0.5 * pb.dgbar, rtol=1e-10, atol=1e-12)


def _statuses_one_by_one(model, sl, zs):
    out = []
    for z in zs:
        if not model.domain_check(sl.embed(z)):
            out.append(("DOMAIN",))
            continue
        try:
            report = curvature(pullback_metric(model, sl, z))
        except DegenerateSliceError:
            out.append(("KERNEL",))
            continue
        conn = report.connection
        out.append(("OK", report.scalar, conn.eigenvalues[0],
                    conn.dual_flatness(), report.residuals["bianchi"]))
    return out


def _statuses_batched(model, sl, zs):
    out = [("DOMAIN",)] * len(zs)
    inside = np.flatnonzero(model.domain_check(sl.embed(zs)))
    report = curvature(pullback_metric(model, sl, zs[inside]))
    conn = report.connection
    flatness = conn.dual_flatness()
    for k, i in enumerate(inside):
        out[i] = (("KERNEL",) if conn.singular[k] else
                  ("OK", report.scalar[k], conn.eigenvalues[k, 0], flatness[k],
                   report.residuals["bianchi"][k]))
    return out


@pytest.mark.parametrize("name, B, c, axes", [
    # across the extremal boundary, plus a point where the metric blows up
    ("kerr_newman_radiant", [0, 0, 1], 0.25,
     [np.linspace(0.3, 2.0, 9), np.linspace(0.05, 0.375, 8)]),
    # tangent to the radiant direction: every in-domain point is KERNEL
    ("ideal_gas", [1, -1, 0], 0.0,
     [np.linspace(-1.0, 1.5, 6), np.linspace(-0.5, 1.5, 5)]),
    ("paramagnet", [1, 2, 3], 4.0, [np.linspace(-1, 1, 7)] * 2),
])
def test_batched_curvature_matches_single_points(name, B, c, axes):
    model = builtin(name)
    sl = make_slice(B, [c])
    zs = np.array(list(product(*axes)))
    if name == "kerr_newman_radiant":
        zs = np.vstack([zs, [[0.5, 0.374999999999]]])
    batched = _statuses_batched(model, sl, zs)
    assert batched == _statuses_one_by_one(model, sl, zs)
    assert {s[0] for s in batched} >= ({"DOMAIN", "KERNEL"} if name == "ideal_gas"
                                       else {"DOMAIN", "OK"})
    if name == "kerr_newman_radiant":
        assert batched[-1] == ("KERNEL",)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_folded_slice_coordinates_match_affine_jets(name):
    # a coordinate constant on the slice (a +0.0 Jacobian row) enters the walk
    # as a float; the pulled-back jet equals, sign bits included, that of a
    # walk keeping it an affine jet, on axis-aligned and oblique slices
    model = builtin(name)
    rng = np.random.default_rng(11)
    x0 = sample_points(name, 1, rng)[0]
    for B, fixed in [([[0, 0, 1]], [2]), ([[0, 1, 0]], [1]), ([[1, 0, 0]], [0]),
                     ([[1, 0, 0], [0, 1, 1]], [0]), ([[1, 1, 0]], []),
                     ([[0.3, 0.5, 1]], [])]:
        sl = make_slice(B, np.array(B, dtype=float) @ x0)
        xs = sl.embed(sl.project(x0) + rng.uniform(-0.05, 0.05, (16, sl.slice_dim)))
        xs = xs[model.domain_check(xs)]
        for x in (xs, xs[0]):
            for order in (1, 4):
                env = expr.environment(model.coordinates, model.parameters, x.T,
                                       sl.jacobian, order)
                assert [i for i, c in enumerate(model.coordinates)
                        if isinstance(env[c], float)] == fixed
                folded = _pullback_jet(model, sl, x, order).coeffs
                env = dict(zip(model.coordinates, jets.affine_jets(x.T, sl.jacobian, order)))
                env.update((k, float(v)) for k, v in model.parameters.items())
                kept = (-expr.eval_finite(model.entropy, env)).coeffs
                assert np.array_equal(folded, kept)
                assert np.array_equal(np.signbit(folded), np.signbit(kept))


def test_batch_in_domain_evaluation_failure_raises():
    # the declared domain misses ln's constraint at u <= 1
    model = load_model(json.dumps({"name": "partial", "coordinates": ["u", "v"],
                                   "entropy": "ln(u - 1) + ln(v)",
                                   "domain": ["u", "v"]}))
    sl = make_slice([0, 1], [1])
    zs = np.array([[2.0], [0.5], [3.0]])
    assert model.domain_check(sl.embed(zs)).all()
    with pytest.raises(DomainError):
        pullback_metric(model, sl, zs)
    pullback_metric(model, sl, zs[[0, 2]])


# -- duality -----------------------------------------------------------

def test_dual_potential_ideal_gas_dn_slice():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    dp = dual_potential(model, sl, [1, 1])
    assert dp.value == pytest.approx(-2.5, abs=1e-12)
    assert dp.extensive_form == pytest.approx(-2.5, abs=1e-12)
    assert not dp.mismatch
    dp_e = dual_potential(model, sl, [math.e, 1])
    assert dp_e.value == pytest.approx(-1.0, abs=1e-12)


def test_dual_potential_closed_form_random_points():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    rng = np.random.default_rng(47)
    c = 1.5
    for _ in range(10):
        U, V = rng.uniform(0.5, 2.0, size=2)
        dp = dual_potential(model, sl, [U, V])
        assert dp.value == pytest.approx(math.log(V * U**c) - (c + 1),
                                         abs=1e-10)


def test_dual_potential_mismatch_for_non_extensive():
    model = builtin("kerr_newman_naive")
    sl = make_slice([0, 0, 1], [0.2])
    dp = dual_potential(model, sl, [1.5, 0.4])
    assert dp.mismatch


def test_dual_coordinates_values():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    assert np.allclose(dual_coordinates(model, sl, [1, 1]), [-1.5, -1.0],
                       atol=1e-12)
    pm = builtin("paramagnet")
    sl_pm = make_slice([0, 0, 1], [1])
    assert np.allclose(dual_coordinates(pm, sl_pm, [1, 0]), [-1.0, 0.0],
                       atol=1e-12)


def test_dual_coordinates_scale_invariant():
    model = builtin("ideal_gas")
    sl2 = make_slice([0, 0, 1], [2])
    x1 = dual_coordinates(model, make_slice([0, 0, 1], [1]), [1.1, 0.9])
    x2 = dual_coordinates(model, sl2, [2.2, 1.8])
    assert np.allclose(x1, x2, rtol=1e-12)


def test_dual_flatness_residual_small():
    model = builtin("ideal_gas")
    for rows, consts, z in ([[0, 0, 1], [1], [1, 1]],
                            [[1, 0, 0], [1], [1.3, 0.8]]):
        sl = make_slice(rows, consts)
        assert dual_flatness_residual(model, sl, z) <= 1e-8


def test_dual_flatness_broken_fixture():
    model = builtin("ideal_gas")
    sl = make_slice([1, 0, 0], [1])
    pb = pullback_metric(model, sl, [1.3, 0.8])
    gamma_star = 2 * levi_civita(pb)
    dgamma_star = 2 * christoffel_derivatives(pb)
    gamma_star[0, 0, 0] += 0.1
    assert flatness_residual(gamma_star, dgamma_star) > 1e-3


def test_legendre_invariance():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    assert legendre_invariance_residual(model, sl, [1, 1]) <= 1e-6
    pm = builtin("paramagnet")
    assert legendre_invariance_residual(pm, make_slice([0, 0, 1], [1]),
                                        [1, 0.2]) <= 1e-6
    one_dim = make_slice([[1, 0, 0], [0, 1, 0]], [1, 1])
    assert legendre_invariance_residual(model, one_dim, [1.2]) <= 1e-8
