import json
import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from helpers import (EDGE_POINTS, complement_residual, involutivity_residual,
                     lie_bracket_fd, metric_ideal_gas, metric_paramagnet,
                     model_doc, perturbed_model, random_homogeneous_model,
                     sample_points, symmetry_residual)
from hessiometric import BUILTIN_NAMES, builtin, load_model
from hessiometric.errors import DomainError
from hessiometric.geometry import (NULL_REL, MetricField, codazzi_residual, euler_defect,
                                   gibbs_duhem_residual, hessian_metric, kernel,
                                   psd_check)
from hessiometric.jets import _space
from hessiometric.submanifold import make_slice, pullback_metric

SYN_RANK2 = json.dumps({
    "name": "two_block",
    "coordinates": ["x1", "x2", "x3", "x4"],
    "entropy": "x1*ln(x2/x1) + x3*ln(x4/x3)",
    "domain": ["x1", "x2", "x3", "x4"],
})

SYN_RATIO = json.dumps({
    "name": "pair_ratio",
    "coordinates": ["x1", "x2", "x3", "x4"],
    "entropy": "(x1+x2)*ln((x3+x4)/(x1+x2))",
    "domain": ["x1", "x2", "x3", "x4"],
})


def test_metric_ideal_gas_printed_matrix():
    mf = hessian_metric(builtin("ideal_gas"), [1, 1, 1])
    expected = np.array([[1.5, 0, -1.5], [0, 1, -1], [-1.5, -1, 2.5]])
    assert np.allclose(mf.g, expected, atol=1e-13)


def test_metric_ideal_gas_off_unit_point():
    mf = hessian_metric(builtin("ideal_gas"), [2, 1, 1])
    assert mf.g[0, 0] == pytest.approx(0.375)
    assert mf.g[0, 2] == pytest.approx(-0.75)
    assert mf.g[1, 1] == pytest.approx(1.0)
    assert mf.g[1, 2] == pytest.approx(-1.0)
    assert mf.g[2, 2] == pytest.approx(2.5)


def test_metric_paramagnet_printed_matrix():
    mf = hessian_metric(builtin("paramagnet"), [1, 0, 1])
    expected = np.array([[1, 0, -1], [0, 2, 0], [-1, 0, 1]])
    assert np.allclose(mf.g, expected, atol=1e-13)


def test_metric_matches_closed_form_at_random_points():
    rng = np.random.default_rng(3)
    for p in sample_points("ideal_gas", 30, rng):
        g = hessian_metric(builtin("ideal_gas"), p).g
        expected = metric_ideal_gas(p)
        assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))
    for p in sample_points("paramagnet", 30, rng):
        g = hessian_metric(builtin("paramagnet"), p).g
        expected = metric_paramagnet(p)
        assert np.max(np.abs(g - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_empty_batch_gives_empty_tensors():
    mf = hessian_metric(builtin("ideal_gas"), np.empty((0, 3)))
    assert mf.g.shape == (0, 3, 3) and mf.dg.shape == (0, 3, 3, 3)
    assert mf.potential.shape == (0,) and mf.gradient.shape == (0, 3)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_metric_field_diagnostics_match_single_points(name):
    # a batch keeps its axis innermost in memory; each diagnostic takes the
    # whole batch and gives every point's result bit for bit as alone
    model = builtin(name)
    points = np.vstack([sample_points(name, 40, np.random.default_rng(41)),
                        EDGE_POINTS[name]])
    batch = hessian_metric(model, points)
    assert batch.g.strides == (8, 8 * len(points) * 3, 8 * len(points))

    def bits(*values):
        return [np.asarray(v, dtype=float).tobytes() for v in values]

    kernels = kernel(batch)
    verdicts, lam_mins = psd_check(kernels)
    gd, cd = gibbs_duhem_residual(batch), codazzi_residual(batch)
    defects = batch.euler_defect
    assert bits(defects) == bits(euler_defect(model, points))
    assert len(verdicts) == len(kernels) == len(points)
    for i, point in enumerate(points):
        mf = hessian_metric(model, point)
        kb = kernel(mf)
        assert bits(batch.g[i], batch.dg[i], batch.potential[i], batch.gradient[i]) == \
            bits(mf.g, mf.dg, mf.potential, mf.gradient)
        assert (verdicts[i], kernels[i].rank) == (psd_check(kb)[0], kb.rank)
        assert bits(lam_mins[i], kernels[i].basis, kernels[i].eigenvalues, gd[i], cd[i],
                    defects[i]) == bits(psd_check(kb)[1], kb.basis, kb.eigenvalues,
                                        gibbs_duhem_residual(mf), codazzi_residual(mf),
                                        mf.euler_defect)
        assert mf.euler_defect.hex() == euler_defect(model, point).hex()


# prints the per-point sums whose batch differs from its points alone
_BATCH_OR_ALONE = """
import numpy as np
from helpers import project, sample_points
from hessiometric import BUILTIN_NAMES, builtin
from hessiometric.geometry import euler_defect, gibbs_duhem_residual, hessian_metric
from hessiometric.submanifold import dual_potential, make_slice, pullback_metric

for name in BUILTIN_NAMES:
    model, row = builtin(name), [0.3, 0.5, 1.0]
    xs = sample_points(name, 24, np.random.default_rng(43))
    sl = make_slice([row], [float(np.dot(row, xs[0]))])
    zs = np.array([project(sl, x) for x in xs])
    zs = zs[model.domain_check(sl.embed(zs))]
    dp = dual_potential(pullback_metric(model, sl, zs))
    alone = [dual_potential(pullback_metric(model, sl, z)) for z in zs]
    pairs = {"euler_defect": (euler_defect(model, xs), [euler_defect(model, x) for x in xs]),
             "gibbs_duhem_residual": (gibbs_duhem_residual(hessian_metric(model, xs)),
                                      [gibbs_duhem_residual(hessian_metric(model, x)) for x in xs]),
             "embed": (sl.embed(zs), [sl.embed(z) for z in zs]),
             "dual_potential": ([dp.value, dp.extensive_form],
                                [[d.value for d in alone], [d.extensive_form for d in alone]])}
    for label, (batch, single) in pairs.items():
        if np.asarray(batch).tobytes() != np.asarray(single).tobytes():
            print(name, label)
"""


def test_batch_sums_round_as_alone_under_another_blas_kernel():
    # OpenBLAS's Prescott kernel sums a dot product in another order than the
    # kernel it picks on a modern x86-64 CPU; the per-point sums do not use BLAS
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    proc = subprocess.run([sys.executable, "-c", _BATCH_OR_ALONE], capture_output=True, text=True,
                          env=dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_metric_field_equals_the_lower_slots_of_an_order_four_jet(name):
    # hessian_metric walks an order-3 jet: its slots round as an order-4 jet's
    model = builtin(name)
    points = np.vstack([sample_points(name, 20, np.random.default_rng(43)),
                        EDGE_POINTS[name]])
    assert model.domain_check(points).all()
    for p in [points] + list(points):
        mf = hessian_metric(model, p)
        jet = model.potential_jet(p, order=4)
        for ours, full in ((mf.potential, jet.value), (mf.gradient, jet.gradient()),
                           (mf.g, jet.hessian()), (mf.dg, jet.third_tensor())):
            assert np.array_equal(ours, full)
            assert np.array_equal(np.signbit(ours), np.signbit(full))


@np.errstate(over="ignore")  # the factorial scaling overflows on purpose
def test_a_derivative_that_overflows_only_by_its_factorial_is_caught_at_the_walk():
    # 1e308 (x - 1)^2 at x = 1: every Taylor coefficient is finite, the second
    # derivative 2e308 is not; order 1 scales no coefficient
    model = load_model(json.dumps({"name": "q", "coordinates": ["x", "y", "z"],
                                   "entropy": "1e308*(x - 1)^2 + y + z", "domain": ["x"]}))
    sl = make_slice([0, 0, 1], [1])
    for call in (lambda: model.potential_jet([1, 1, 1], order=2),
                 lambda: hessian_metric(model, [1, 1, 1]),
                 lambda: pullback_metric(model, sl, [1, 1])):
        with pytest.raises(DomainError, match="^expression value or derivatives are not finite$"):
            call()
    assert euler_defect(model, [1, 1, 1]) == 0.0


def test_metric_domain_violation():
    with pytest.raises(DomainError):
        hessian_metric(builtin("ideal_gas"), [-1, 1, 1])


def test_kernel_ideal_gas_is_euler_direction():
    mf = hessian_metric(builtin("ideal_gas"), [1, 1, 1])
    kb = kernel(mf)
    assert kb.rank == 2
    assert np.allclose(np.abs(kb.basis[0]), 1 / np.sqrt(3), atol=1e-10)
    assert kb.basis[0][0] > 0  # canonical sign


def test_kernel_paramagnet():
    mf = hessian_metric(builtin("paramagnet"), [1, 0, 1])
    kb = kernel(mf)
    assert kb.rank == 2
    assert np.allclose(kb.basis[0], [1 / np.sqrt(2), 0, 1 / np.sqrt(2)],
                       atol=1e-10)


def test_kernel_zero_matrix():
    mf = MetricField(point=np.zeros(3), g=np.zeros((3, 3)),
                     dg=np.zeros((3, 3, 3)),
                     potential=0.0, gradient=np.zeros(3))
    kb = kernel(mf)
    assert kb.rank == 0
    assert np.allclose(kb.basis, np.eye(3))


def _kernel_reference(g):
    """One point's kernel as a loop: the null columns of ``eigh``, then each
    row's first entry of magnitude above 1e-14 made positive."""
    eigenvalues, eigenvectors = np.linalg.eigh(g)
    lam_max = float(np.max(np.abs(eigenvalues)))
    null = (np.abs(eigenvalues) <= NULL_REL * lam_max) | (lam_max == 0.0)
    basis = eigenvectors[:, null].T.copy()
    for row in basis:
        for x in row:
            if abs(x) > 1e-14:
                if x < 0:
                    row *= -1.0
                break
    return len(eigenvalues) - int(np.count_nonzero(null)), basis, eigenvalues


def test_kernel_of_a_batch_equals_the_per_point_loop():
    # one null mask and sign fix over the whole batch: leading zeros and
    # entries below 1e-14, negative leads, the zero matrix and rank 1
    rng = np.random.default_rng(23)
    q = np.linalg.qr(rng.normal(size=(30, 3, 3)))[0]
    spectra = rng.choice([0.0, 1e-17, -0.5, 1.0, 2.0, 3.0], size=(30, 3))
    gs = np.vstack([q @ (spectra[..., None] * q.swapaxes(-1, -2)),
                    [np.diag([0.0, 1.0, 2.0]), np.diag([1.0, 0.0, 0.0]), np.zeros((3, 3)),
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
                     [[2.0, 0.0, 1e-15], [0.0, 0.0, 0.0], [1e-15, 0.0, 1.0]]]])
    gs = (gs + gs.swapaxes(-1, -2)) / 2

    def field(g):
        return MetricField(point=np.zeros(g.shape[:-1]), g=g, dg=None, potential=None,
                           gradient=None)

    batch = kernel(field(gs))
    for g, kb in zip(gs, batch):
        rank, basis, eigenvalues = _kernel_reference(g)
        for got in (kb, kernel(field(g))):
            assert got.rank == rank
            assert np.array_equal(got.basis, basis)
            assert np.array_equal(np.signbit(got.basis), np.signbit(basis))
            assert np.array_equal(got.eigenvalues, eigenvalues)
    # ragged null counts: points with 0, 1 and 2 null eigenvalues in one batch
    assert {0, 1, 2} <= {len(kb.basis) for kb in batch}


def test_kernel_eigen_residual():
    rng = np.random.default_rng(5)
    for p in sample_points("ideal_gas", 20, rng):
        mf = hessian_metric(builtin("ideal_gas"), p)
        kb = kernel(mf)
        lam, vec = np.linalg.eigh(mf.g)
        for value, v in zip(lam, vec.T):
            assert np.linalg.norm(mf.g @ v - value * v) \
                <= 1e-10 * np.linalg.norm(mf.g)
        for v in kb.basis:
            assert np.linalg.norm(mf.g @ v) <= 1e-10 * np.linalg.norm(mf.g)


def test_euler_defect_ideal_gas():
    model = builtin("ideal_gas")
    assert abs(euler_defect(model, [1.3, 0.7, 2.1])) <= 1e-12
    shifted = builtin("ideal_gas", S0=5.0)
    assert euler_defect(shifted, [1, 1, 1]) == pytest.approx(5.0, abs=1e-12)
    assert euler_defect(shifted, [2, 3, 7]) == pytest.approx(5.0, abs=1e-11)


def test_euler_defect_reads_no_derivative_above_the_gradient():
    # the order-1 jet is finite at U = 1e-110; ln's second derivative at
    # U^1.5 = 1e-165 is not
    assert euler_defect(builtin("ideal_gas"), [1e-110, 1, 1]) == 0.0


def test_euler_defect_kn_naive_not_constant():
    model = builtin("kerr_newman_naive")
    d1 = euler_defect(model, [2, 0.5, 0.3])
    d2 = euler_defect(model, [1.5, 0.4, 0.2])
    assert d1 != pytest.approx(0.0, abs=1e-3)
    assert abs(d1 - d2) > 1e-2


def test_gibbs_duhem_extensive_models():
    assert gibbs_duhem_residual(
        hessian_metric(builtin("ideal_gas"), [2, 1, 1])) <= 1e-12
    assert gibbs_duhem_residual(
        hessian_metric(builtin("paramagnet"), [1, 0, 1])) <= 1e-12


def test_gibbs_duhem_detects_perturbation():
    model = perturbed_model(model_doc(builtin("ideal_gas")), 0.01)
    mf = hessian_metric(model, [1, 1, 1])
    assert gibbs_duhem_residual(mf) >= 1e-3


def test_theorem_forward_direction():
    rng = np.random.default_rng(17)
    for name in ("ideal_gas", "paramagnet", "kerr_newman_radiant"):
        model = builtin(name)
        for p in sample_points(name, 30, rng):
            assert gibbs_duhem_residual(hessian_metric(model, p)) <= 1e-10


def test_theorem_converse_direction():
    rng = np.random.default_rng(19)
    for _ in range(10):
        model = random_homogeneous_model(rng)
        doc = model_doc(model)
        point = rng.uniform(0.8, 1.5, size=model.dim)
        assert gibbs_duhem_residual(hessian_metric(model, point)) <= 1e-10
        for eps in (1e-3, 1e-1):
            broken = perturbed_model(doc, eps)
            res = gibbs_duhem_residual(hessian_metric(broken, point))
            assert res >= eps / 10


def test_metric_homogeneity_degree_minus_one():
    rng = np.random.default_rng(23)
    model = builtin("ideal_gas")
    for p in sample_points("ideal_gas", 10, rng):
        g = hessian_metric(model, p).g
        for lam in (0.5, 2.0, 10.0):
            g_scaled = hessian_metric(model, lam * p).g
            assert np.allclose(g_scaled, g / lam,
                               rtol=1e-10, atol=1e-12 * np.max(np.abs(g)))


def test_kernel_scale_equivariance():
    model = builtin("paramagnet")
    p = np.array([1.4, 0.3, 0.9])
    for lam in (0.5, 2.0, 10.0):
        kb = kernel(hessian_metric(model, lam * p))
        direction = lam * p / np.linalg.norm(lam * p)
        assert np.allclose(np.abs(kb.basis[0]), np.abs(direction), atol=1e-9)


def test_codazzi_residual_builtins():
    # third_tensor gathers every permutation of (k, i, j) from one jet slot, so
    # dg is exactly symmetric: the residual is 0.0, not roundoff
    slots = _space(3, 3)[4][2][0]
    for axes in permutations(range(3)):
        assert np.array_equal(slots, slots.transpose(axes))
    rng = np.random.default_rng(29)
    for name in BUILTIN_NAMES:
        points = np.vstack([sample_points(name, 5, rng), EDGE_POINTS[name]])
        mf = hessian_metric(builtin(name), points)
        assert codazzi_residual(mf).tolist() == [0.0] * len(points)
        assert [symmetry_residual(dg) for dg in mf.dg] == [0.0] * len(points)


def test_codazzi_broken_fixture():
    dg = np.zeros((2, 2, 2))
    dg[0, 0, 1] = 0.5
    assert symmetry_residual(dg) == pytest.approx(1.0)
    assert symmetry_residual(np.zeros((2, 2, 2))) == 0.0
    # on arrays that are not symmetric the batch equals the oracle bit for bit
    dgs = np.stack([dg, np.zeros((2, 2, 2)), np.random.default_rng(7).random((2, 2, 2))])
    mf = MetricField(point=np.ones((3, 2)), g=np.zeros((3, 2, 2)), dg=dgs,
                     potential=np.zeros(3), gradient=np.zeros((3, 2)))
    assert codazzi_residual(mf).tolist() == [symmetry_residual(d) for d in dgs]


def test_psd_verdicts():
    verdict, lam_min = psd_check(kernel(hessian_metric(builtin("ideal_gas"), [1, 1, 1])))
    assert verdict == "psd"
    assert lam_min == pytest.approx(0.0, abs=1e-12)
    verdict, _ = psd_check(kernel(hessian_metric(builtin("paramagnet"), [1, 0, 1])))
    assert verdict == "psd"
    verdict, lam_min = psd_check(
        kernel(hessian_metric(builtin("kerr_newman_naive"), [2, 0.5, 0.3])))
    assert verdict == "indefinite"
    assert lam_min < -1e-3


def test_involutivity_trivial_for_rank_one_kernel():
    res = involutivity_residual(builtin("ideal_gas"), [1, 1, 1])
    assert res.trivial
    assert res.residual == 0.0
    assert res.kernel_dim == 1


def test_involutivity_two_block_model():
    model = load_model(SYN_RANK2)
    res = involutivity_residual(model, [1.0, 1.3, 0.7, 1.1])
    assert not res.trivial
    assert res.kernel_dim == 2
    assert res.residual <= 1e-5


def test_involutivity_pair_ratio_model():
    model = load_model(SYN_RATIO)
    res = involutivity_residual(model, [1.0, 1.3, 0.7, 1.1])
    assert res.kernel_dim >= 2
    assert res.residual <= 1e-5


def test_non_integrable_control_fields():
    # X = d1, Y = x1 d2 + d3; [X, Y] = d2 leaves span{X, Y}
    def X(x):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def Y(x):
        return np.array([0.0, x[0], 1.0, 0.0])

    p = np.array([0.5, 1.0, 1.0, 1.0])
    h = 1e-4 * (1 + np.linalg.norm(p))
    bracket = lie_bracket_fd(X, Y, p, h)
    assert np.allclose(bracket, [0, 1, 0, 0], atol=1e-8)
    fake_kernel = np.array([X(p), Y(p)])
    assert complement_residual(bracket, fake_kernel) >= 1e-1
