import json
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (amax, connection_reference, fd_scalar_curvature, flatness_reference,
                     kn_jslice_scalar_reference, metric_ideal_gas,
                     metric_kn_radiant_jslice, project, riemann_parts_reference,
                     sample_points)
from hessiometric import BUILTIN_NAMES, builtin, expr, jets, load_model
from hessiometric.errors import (DegenerateSliceError, DomainError,
                                 RankDeficientError)
from hessiometric.submanifold import (christoffel_derivatives, connection, curvature,
                                      dual_coordinates, dual_flatness_residual,
                                      dual_potential, legendre_invariance_residual,
                                      levi_civita, make_slice, pullback_metric)
from hessiometric.submanifold import Connection, CurvatureReport, _riemann_parts


def random_interior_slice(rng, model, ndrop=1, box=(0.8, 1.5)):
    """Random full-rank slice through a random interior point; returns
    (slice, z at that point)."""
    n = model.dim
    B = rng.standard_normal((ndrop, n))
    x0 = rng.uniform(box[0], box[1], size=n)
    sl = make_slice(B, B @ x0)
    return sl, project(sl, x0)


# -- slice construction ------------------------------------------------

def test_axis_slice_keeps_coordinates():
    sl = make_slice([0, 0, 1], [1])
    assert np.array_equal(sl.jacobian, np.eye(3)[:, :2])
    assert not np.signbit(sl.jacobian).any()  # +0.0: a constant coordinate folds
    assert np.array_equal(sl.offset, [0, 0, 1])
    assert np.array_equal(sl.embed([1.3, 0.7]), [1.3, 0.7, 1.0])


def test_sum_slice_adapted_chart():
    sl = make_slice([1, 1, 1], [3])
    assert sl.slice_dim == 2
    # a tie pivots the first column; the other two chart the slice
    assert np.array_equal(sl.jacobian, [[-1, -1], [1, 0], [0, 1]])
    assert np.allclose(sl.offset, [1, 1, 1], rtol=0, atol=1e-15)
    x = sl.embed([0.1, -0.2])
    assert np.sum(x) == pytest.approx(3.0)
    # U + V = s: z = ((V - U) / 2, N), V less the offset's s / 2
    sl = make_slice([1, 1, 0], [3])
    assert np.allclose(project(sl, [1.0, 2.0, 0.7]), [0.5, 0.7], rtol=0, atol=1e-15)


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


def _chart_test_slices():
    slices = [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1], [1, -1, 0], [1, 1, 0],
              [0.3, 0.7, 0.2], [1, 2, 3], [0, 1],
              [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]]
    rng = np.random.default_rng(31)  # Gaussian constraints as drawn above
    for _ in range(200):
        n = int(rng.integers(2, 9))
        slices.append(rng.standard_normal((int(rng.integers(1, n)), n)))
    return slices


def test_adapted_chart_matches_lapack_pivoted_qr():
    # the free coordinates are those scipy's pivoted QR does not pivot; offset
    # and dx/dc are the pseudo-inverse's
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for B in _chart_test_slices():
        B = np.atleast_2d(np.asarray(B, dtype=float))
        m, n = B.shape
        c = np.linspace(1, 2, m)
        sl = make_slice(B, c)
        pivots = set(scipy_linalg.qr(B, pivoting=True)[2][:m])
        free = [j for j in range(n) if j not in pivots]
        assert np.array_equal(sl.jacobian[free], np.eye(n - m))
        assert np.max(np.abs(B @ sl.jacobian)) <= 1e-12
        pinv = scipy_linalg.pinv(B)
        assert np.max(np.abs(sl.trailing - pinv)) <= 1e-14 * np.max(np.abs(pinv))
        assert np.max(np.abs(sl.offset - pinv @ c)) <= 1e-14 * np.max(np.abs(pinv @ c))


def test_rank_decision_matches_matrix_rank():
    # the pivot residuals decide: a slice is built iff B has full row rank,
    # and then its Jacobian spans B's null space
    rng = np.random.default_rng(41)
    slices = _chart_test_slices()
    for _ in range(300):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        slices.append(rng.integers(-3, 4, (m, n)))
        slices.append(rng.standard_normal((m, n)))
        slices.append(rng.integers(0, 2, (m, n)))
    checked = 0
    for B in slices:
        B = np.atleast_2d(B)
        full_rank = np.linalg.matrix_rank(B) == B.shape[0]
        try:
            sl = make_slice(B, np.ones(B.shape[0]))
        except RankDeficientError:
            assert not full_rank  # a random integer B may be singular
            continue
        assert full_rank and np.max(np.abs(B @ sl.jacobian)) <= 1e-12
        checked += 1
    assert checked > 700


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
    pb = pullback_metric(model, sl, project(sl, np.ones(3)))
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
    assert flatness_reference(gamma, dgamma) == 0.0


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


def _eager_residuals(pb, report):
    """The structural residuals as curvature() computed them eagerly."""
    riemann, gamma = report.riemann, report.connection.gamma
    r_scale = amax(riemann, 4) + 1e-300
    antisym = amax(riemann + riemann.swapaxes(-1, -2), 4) / r_scale
    bianchi = amax(riemann + np.einsum("...adbc->...abcd", riemann)
                   + np.einsum("...acdb->...abcd", riemann), 4) / r_scale
    nabla_g = (pb.dgbar
               - np.einsum("...dca,...db->...cab", gamma, pb.gbar)
               - np.einsum("...dcb,...ad->...cab", gamma, pb.gbar))
    compat = amax(nabla_g, 3) / (amax(pb.dgbar, 3) + 1e-300)
    return {"antisymmetry": antisym, "bianchi": bianchi,
            "metric_compatibility": compat}


def _slice_points_of_every_builtin():
    """(name, pullback of a batch) on axis-aligned and oblique slices."""
    rng = np.random.default_rng(17)
    for name in BUILTIN_NAMES:
        model = builtin(name)
        x0 = sample_points(name, 1, rng)[0]
        for B in ([[0, 0, 1]], [[0, 1, 0]], [[1, 0, 0]], [[1, 1, 0]],
                  [[0.3, 0.5, 1]], [[1, 2, 3]], [[1, 0, 0], [0, 1, 1]]):
            sl = make_slice(B, np.array(B, dtype=float) @ x0)
            zs = project(sl, x0) + rng.uniform(-0.05, 0.05, (8, sl.slice_dim))
            zs = zs[model.domain_check(sl.embed(zs))]
            zs = zs[~curvature(pullback_metric(model, sl, zs)).connection.singular]
            if len(zs):
                yield name, model, sl, zs


def test_residuals_equal_the_eager_formulas():
    for _, model, sl, zs in _slice_points_of_every_builtin():
        for z in (zs, zs[0]):
            pb = pullback_metric(model, sl, z)
            report = curvature(pb)
            expected = _eager_residuals(pb, report)
            assert report.residuals.keys() == expected.keys()
            for key, value in report.residuals.items():
                assert np.array_equal(value, expected[key])
                assert isinstance(value, float) == (z.ndim == 1)


def test_dual_flatness_equals_the_doubled_connection_residual():
    # from the Riemann parts of Gamma: bit for bit the reference flatness of 2Γ
    model = builtin("kerr_newman_radiant")
    golden = make_slice([0, 0, 1], [0.25]), \
        np.array(list(product(np.linspace(1, 2, 3), np.linspace(0.1, 0.3, 3))))
    cases = [("kerr_newman_radiant", model) + golden]
    for case in cases + list(_slice_points_of_every_builtin()):
        _, model, sl, zs = case
        for z in (zs, zs[0]):
            report = curvature(pullback_metric(model, sl, z))
            conn = report.connection
            expected = flatness_reference(2.0 * conn.gamma, 2.0 * conn.dgamma)
            assert np.array_equal(report.dual_flatness, expected)
            assert np.array_equal(dual_flatness_residual(model, sl, z), expected)


def _tensors(r, k):
    return hnp.arrays(float, (r,) * k, elements=st.floats(
        -1e150, 1e150, allow_nan=False, allow_infinity=False))


# products that underflow: 4 * (g0 * g) is 0.0 where (2 g0) * (2 g) is not
_SUBNORMAL_GAMMA = np.full((2, 2, 2), 9.56081044e-267)
_SUBNORMAL_GAMMA[0, 0, 0] = 7.66149469e-59


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(_tensors(r, 3), _tensors(r, 4))))
@example((_SUBNORMAL_GAMMA, np.zeros((2, 2, 2, 2))))
@np.errstate(over="ignore", invalid="ignore", under="ignore")
def test_dual_flatness_from_parts_on_arbitrary_tensors(tensors):
    gamma, dgamma = tensors
    conn = Connection(eigenvalues=None, ginv=None, gamma=gamma, dgamma=dgamma, singular=None)
    report = CurvatureReport(connection=conn, riemann=None, ricci=None, scalar=None,
                             pullback=None)
    assert np.array_equal(report.dual_flatness,
                          flatness_reference(2.0 * gamma, 2.0 * dgamma), equal_nan=True)


# strictly convex potential in four coordinates with many zero third
# derivatives: r = 3 on a one-row slice
FOUR = load_model(json.dumps({
    "name": "four", "coordinates": ["a", "b", "c", "d"],
    "entropy": "ln(a) + 2*ln(b) + sqrt(c*d) + ln(a + b + c + d) + ln(a + 2*c)",
    "domain": ["a", "b", "c", "d"]}))


def _oracle_cases():
    """(model, slice, batch) on axis-aligned and oblique slices, r = 2 and 3."""
    rng = np.random.default_rng(29)
    cases = [(builtin(name), sample_points(name, 1, rng)[0], B)
             for name in BUILTIN_NAMES
             for B in ([[0, 0, 1]], [[0, 1, 0]], [[1, 0, 0]], [[1, 1, 0]], [[0.3, 0.5, 1]])]
    x4 = rng.uniform(0.8, 1.5, 4)
    cases += [(FOUR, x4, B) for B in ([[0, 0, 0, 1]], [[1, 0, 0, 0]], [[1, 2, 3, 4]],
                                      [[0.3, -0.5, 1, 0.7]])]
    for model, x0, B in cases:
        sl = make_slice(B, np.array(B, dtype=float) @ x0)
        zs = project(sl, x0) + rng.uniform(-0.05, 0.05, (12, sl.slice_dim))
        yield model, sl, zs[model.domain_check(sl.embed(zs))]


def _bitwise_equal(ours, reference):
    return (np.array_equal(ours, reference)
            and np.array_equal(np.signbit(ours), np.signbit(reference)))


def test_connection_and_riemann_parts_equal_the_general_formulas():
    # the symbols as half of dgbar, d2gbar and B2 as B1 with two axes swapped:
    # bit for bit the general formulas, signs of zero included; the pulled-back
    # jets hold -0.0 slots, where (t + t) - t gives +0.0 but the sums drop the sign
    seen = Counter()
    for model, sl, zs in _oracle_cases():
        regular = zs[~connection(pullback_metric(model, sl, zs)).singular]
        for z in [zs] + list(regular[:3]):
            pb = pullback_metric(model, sl, z)
            conn = connection(pb)
            gamma, dgamma = connection_reference(pb)
            assert _bitwise_equal(conn.gamma, gamma) and _bitwise_equal(conn.dgamma, dgamma)
            parts = _riemann_parts(conn.gamma, conn.dgamma)
            assert all(map(_bitwise_equal, parts, riemann_parts_reference(gamma, dgamma)))
            seen[sl.slice_dim, z.ndim] += 1
            seen["-0.0"] += sum(np.count_nonzero((t == 0) & np.signbit(t))
                                for t in (pb.dgbar, pb.d2gbar))
    assert seen[2, 2] and seen[2, 1] and seen[3, 2] and seen[3, 1] and seen["-0.0"]


@pytest.mark.parametrize("d", [1e-2, 2e-4, 2e-6, 2e-7, 2e-8])
def test_dual_flatness_tracks_the_scalar_error_near_extremality(d):
    # d = (u^2 - q u - j^2) / u^2 on the KN J-slice: the float scalar loses
    # digits like eps / d^2, and the dual flatness (zero in exact arithmetic)
    # grows with that error, 6 to 17 times below it
    u, j = 0.5, 0.25
    q = (u * u - j * j - d * u * u) / u
    report = curvature(pullback_metric(builtin("kerr_newman_radiant"),
                                       make_slice([0, 0, 1], [j]), [u, q]))
    exact = kn_jslice_scalar_reference(u, q, j)
    assert abs(report.scalar - exact) / abs(exact) <= 50 * report.dual_flatness + 1e-12


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
                    report.dual_flatness, report.residuals["bianchi"]))
    return out


def _statuses_batched(model, sl, zs):
    out = [("DOMAIN",)] * len(zs)
    inside = np.flatnonzero(model.domain_check(sl.embed(zs)))
    report = curvature(pullback_metric(model, sl, zs[inside]))
    conn = report.connection
    flatness = report.dual_flatness
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
        xs = sl.embed(project(sl, x0) + rng.uniform(-0.05, 0.05, (16, sl.slice_dim)))
        xs = xs[model.domain_check(xs)]
        for x in (xs, xs[0]):
            for order in (1, 4):
                env = expr.environment(model.coordinates, model.parameters, x.T,
                                       sl.jacobian, order)
                assert [i for i, c in enumerate(model.coordinates)
                        if isinstance(env[c], float)] == fixed
                folded = model.potential_jet(x, order, sl.jacobian).coeffs
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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_empty_batch_gives_empty_tensors(name):
    # as domain_check gives an empty mask; a slice-constant coordinate and a
    # constant exponent jet (ideal_gas's N^(-(c+1))) are the two folds
    model = builtin(name)
    for B, c in (([0, 0, 1], [1]), ([1, 1, 1], [2]), ([[1, 0, 0], [0, 0, 1]], [1, 1])):
        sl = make_slice(B, c)
        r = sl.slice_dim
        pb = pullback_metric(model, sl, np.empty((0, r)))
        assert pb.gbar.shape == (0, r, r) and pb.dgbar.shape == (0, r, r, r)
        assert pb.d2gbar.shape == (0, r, r, r, r)
        report = curvature(pb)
        assert report.scalar.shape == report.dual_flatness.shape == (0,)
        assert report.riemann.shape == (0, r, r, r, r)
        assert all(v.shape == (0,) for v in report.residuals.values())


# -- duality -----------------------------------------------------------

def test_dual_potential_ideal_gas_dn_slice():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    dp = dual_potential(pullback_metric(model, sl, [1, 1]))
    assert dp.value == pytest.approx(-2.5, abs=1e-12)
    assert dp.extensive_form == pytest.approx(-2.5, abs=1e-12)
    assert not dp.mismatch
    dp_e = dual_potential(pullback_metric(model, sl, [math.e, 1]))
    assert dp_e.value == pytest.approx(-1.0, abs=1e-12)


def test_dual_potential_closed_form_random_points():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    rng = np.random.default_rng(47)
    c = 1.5
    for _ in range(10):
        U, V = rng.uniform(0.5, 2.0, size=2)
        dp = dual_potential(pullback_metric(model, sl, [U, V]))
        assert dp.value == pytest.approx(math.log(V * U**c) - (c + 1),
                                         abs=1e-10)


def test_dual_potential_mismatch_for_non_extensive():
    model = builtin("kerr_newman_naive")
    sl = make_slice([0, 0, 1], [0.2])
    dp = dual_potential(pullback_metric(model, sl, [1.5, 0.4]))
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
    assert flatness_reference(gamma_star, dgamma_star) > 1e-3


def test_legendre_invariance():
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    assert legendre_invariance_residual(pullback_metric(model, sl, [1, 1])) <= 1e-6
    pm = builtin("paramagnet")
    assert legendre_invariance_residual(pullback_metric(
        pm, make_slice([0, 0, 1], [1]), [1, 0.2])) <= 1e-6
    one_dim = make_slice([[1, 0, 0], [0, 1, 0]], [1, 1])
    assert legendre_invariance_residual(pullback_metric(model, one_dim, [1.2])) <= 1e-8
