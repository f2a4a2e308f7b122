"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture so it shows
up in plain pytest runs) and then asserts, so the suite both documents
and enforces the contract.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import helpers
from helpers import (complement_residual, involutivity_residual,
                     lie_bracket_fd, symmetry_residual)
from hessiometric import builtin, cli, load_model
from hessiometric.expr import eval_jet
from hessiometric.geometry import (codazzi_residual, euler_defect,
                                   gibbs_duhem_residual, hessian_metric,
                                   kernel)
from hessiometric.submanifold import (curvature, dual_flatness_residual,
                                      dual_potential,
                                      legendre_invariance_residual,
                                      make_slice, pullback_metric)

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

TWO_BLOCK = json.dumps({
    "name": "two_block",
    "coordinates": ["x1", "x2", "x3", "x4"],
    "entropy": "x1*ln(x2/x1) + x3*ln(x4/x3)",
    "domain": ["x1", "x2", "x3", "x4"],
})


def _report(number, title, ok):
    line = f"criterion {number:2d} [{title}]: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_metric_oracles():
    rng = np.random.default_rng(101)
    ok = True
    for name, oracle in (("ideal_gas", helpers.metric_ideal_gas),
                         ("paramagnet", helpers.metric_paramagnet)):
        model = builtin(name)
        for p in helpers.sample_points(name, 100, rng):
            g = hessian_metric(model, p).g
            expected = oracle(p)
            err = np.max(np.abs(g - expected)) / np.max(np.abs(expected))
            ok = ok and err <= 1e-12
    _report(1, "metric closed forms", ok)


def test_criterion_02_kernel_is_euler_field():
    rng = np.random.default_rng(102)
    ok = True
    for name in ("ideal_gas", "paramagnet"):
        model = builtin(name)
        for p in helpers.sample_points(name, 100, rng):
            kb = kernel(hessian_metric(model, p))
            ok = ok and kb.rank == model.dim - 1
            v = kb.basis[0]
            u = p / np.linalg.norm(p)
            sin_angle = np.linalg.norm(np.cross(v, u))
            ok = ok and sin_angle <= 1e-8
    _report(2, "kernel spans the scaling direction", ok)


def test_criterion_03_extensivity_theorem_both_directions():
    rng = np.random.default_rng(103)
    ok = True
    # (a) vanishing residual for extensive potentials
    for name in ("ideal_gas", "paramagnet", "kerr_newman_radiant"):
        model = builtin(name)
        for p in helpers.sample_points(name, 20, rng):
            ok = ok and gibbs_duhem_residual(hessian_metric(model, p)) <= 1e-10
    docs = []
    for _ in range(50):
        model = helpers.random_homogeneous_model(rng)
        docs.append(helpers.model_doc(model))
        p = rng.uniform(0.8, 1.5, size=model.dim)
        ok = ok and gibbs_duhem_residual(hessian_metric(model, p)) <= 1e-10
    # (b) quadratic perturbations are detected, scaled with epsilon
    for doc in docs[:10]:
        dim = len(doc["coordinates"])
        p = rng.uniform(0.8, 1.5, size=dim)
        for eps in (1e-3, 1e-1):
            broken = helpers.perturbed_model(doc, eps)
            res = gibbs_duhem_residual(hessian_metric(broken, p))
            ok = ok and res >= eps / 10
    # (c) defect constancy / value
    for name in ("ideal_gas", "paramagnet", "kerr_newman_radiant"):
        model = builtin(name)
        defects = [euler_defect(model, p)
                   for p in helpers.sample_points(name, 20, rng)]
        ok = ok and max(defects) - min(defects) <= 1e-10
    shifted = builtin("ideal_gas", S0=3.25)
    ok = ok and abs(euler_defect(shifted, [1.3, 0.7, 2.0]) - 3.25) <= 1e-10
    naive = builtin("kerr_newman_naive")
    naive_defects = [euler_defect(naive, p)
                     for p in helpers.sample_points("kerr_newman_naive",
                                                    20, rng)]
    ok = ok and max(naive_defects) - min(naive_defects) >= 1e-2
    _report(3, "extensive iff degenerate direction", ok)


def test_criterion_04_black_hole_chart_contrast():
    rng = np.random.default_rng(104)
    naive = builtin("kerr_newman_naive")
    radiant = builtin("kerr_newman_radiant")
    naive_points = helpers.sample_points("kerr_newman_naive", 20, rng)
    # matched points: same states expressed in the quadratic chart
    radiant_points = np.column_stack([naive_points[:, 0] ** 2,
                                      naive_points[:, 1] ** 2,
                                      naive_points[:, 2]])
    d_rad = [euler_defect(radiant, p) for p in radiant_points]
    d_nai = [euler_defect(naive, p) for p in naive_points]
    ok = (max(d_rad) - min(d_rad) <= 1e-10
          and max(d_nai) - min(d_nai) >= 1e-2)
    _report(4, "chart choice decides extensivity", ok)


def test_criterion_05_derivatives_match_finite_differences():
    rng = np.random.default_rng(105)
    ok = True
    for name, fn in helpers.ENTROPY_FNS.items():
        model = builtin(name)
        for p in helpers.sample_points(name, 25, rng):
            jet = eval_jet(model.entropy, model.coordinates, p,
                           model.parameters, 4)
            for alpha in helpers.multi_indices(model.dim, 4):
                ad = helpers.extract(jet, alpha)
                fd = helpers.fd_partial(fn, p, alpha)
                tol = 1e-6 if sum(alpha) <= 2 else 1e-4
                ok = ok and abs(ad - fd) <= tol * max(abs(ad), 1.0)
    _report(5, "jet derivatives vs finite differences", ok)


def test_criterion_06_third_derivative_symmetry():
    rng = np.random.default_rng(106)
    ok = True
    for name in helpers.ENTROPY_FNS:
        model = builtin(name)
        for p in helpers.sample_points(name, 10, rng):
            ok = ok and codazzi_residual(hessian_metric(model, p)) <= 1e-12
    dg = np.zeros((2, 2, 2))
    dg[0, 0, 1] = 0.5
    ok = ok and symmetry_residual(dg) == 1.0
    _report(6, "metric-gradient total symmetry", ok)


def test_criterion_07_slice_machinery():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        B = rng.standard_normal((m, n))
        sl = make_slice(B, rng.standard_normal(m))
        ok = ok and np.max(np.abs(B @ sl.jacobian)) <= 1e-12
    for name in ("ideal_gas", "paramagnet"):
        model = builtin(name)
        for _ in range(10):
            B = rng.standard_normal((1, 3))
            x0 = rng.uniform(0.8, 1.5, size=3)
            sl = make_slice(B, B @ x0)
            pb = pullback_metric(model, sl, helpers.project(sl, x0))
            ok = ok and pb.two_path_residual <= 1e-11
    _report(7, "slice charts and pullback agreement", ok)


def test_criterion_08_dual_structure():
    rng = np.random.default_rng(108)
    ok = True
    # (a) the doubled connection is flat on random transversal slices
    for name in ("ideal_gas", "paramagnet"):
        model = builtin(name)
        for _ in range(5):
            B = rng.standard_normal((1, 3))
            x0 = rng.uniform(0.9, 1.4, size=3)
            sl = make_slice(B, B @ x0)
            for _ in range(20):
                x = rng.uniform(0.9, 1.4, size=3)
                z = helpers.project(sl, x0 + 0.2 * (x - x0))
                ok = ok and dual_flatness_residual(model, sl, z) <= 1e-6
    # (b) dual potential closed form on the fixed-N slice
    model = builtin("ideal_gas")
    sl = make_slice([0, 0, 1], [1])
    c = 1.5
    probes = [np.array([1.0, 1.0]), np.array([math.e, 1.0])]
    probes += list(rng.uniform(0.6, 1.8, size=(10, 2)))
    for z in probes:
        dp = dual_potential(pullback_metric(model, sl, z))
        expected = math.log(z[1] * z[0] ** c) - (c + 1)
        ok = ok and abs(dp.value - expected) <= 1e-10
        ok = ok and not dp.mismatch
    # (c) the transform built from dual coordinates is an isometry
    for z in ([1.0, 1.0], [1.3, 0.8]):
        ok = ok and legendre_invariance_residual(pullback_metric(model, sl, z)) <= 1e-6
    pm_slice = make_slice([0, 0, 1], [1])
    ok = ok and legendre_invariance_residual(pullback_metric(
        builtin("paramagnet"), pm_slice, [1.0, 0.2])) <= 1e-6
    _report(8, "dual potential and flat dual connection", ok)


def test_criterion_09_slice_curvature():
    model = builtin("ideal_gas")
    ok = True
    # fixed-N slice: product metric, flat
    sl_n = make_slice([0, 0, 1], [1])
    grid = np.linspace(0.6, 1.8, 5)
    for u in grid:
        for v in grid:
            report = curvature(pullback_metric(model, sl_n, [u, v]))
            ok = ok and abs(report.scalar) <= 1e-8
            ok = ok and report.residuals["bianchi"] <= 1e-9
            ok = ok and report.residuals["metric_compatibility"] <= 1e-9
    # fixed-U slice vs the independent finite-difference oracle
    sl_u = make_slice([1, 0, 0], [1])

    def gbar_fn(z):
        return helpers.metric_ideal_gas([1.0, z[0], z[1]])[1:, 1:]

    for v in grid:
        for n in grid:
            scalar = curvature(pullback_metric(model, sl_u, [v, n])).scalar
            oracle = helpers.fd_scalar_curvature(gbar_fn, [v, n])
            ok = ok and abs(scalar - oracle) <= 1e-6 * max(abs(oracle), 1.0)
    # one-dimensional slices are exactly flat
    for rows, consts in ([[[1, 0, 0], [0, 1, 0]], [1, 1]],
                         [[[0, 1, 0], [0, 0, 1]], [2, 1]]):
        sl1 = make_slice(rows, consts)
        ok = ok and curvature(pullback_metric(model, sl1, [1.2])).scalar == 0.0
    _report(9, "slice curvature vs oracle", ok)


def test_criterion_10_kernel_involutivity():
    model = load_model(TWO_BLOCK)
    res = involutivity_residual(model, [1.0, 1.3, 0.7, 1.1])
    ok = res.kernel_dim == 2 and res.residual <= 1e-5

    # control: plane field spanned by d1 and x1 d2 + d3 is not involutive
    def X(x):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def Y(x):
        return np.array([0.0, x[0], 1.0, 0.0])

    p = np.array([0.5, 1.0, 1.0, 1.0])
    bracket = lie_bracket_fd(X, Y, p, 1e-4 * (1 + np.linalg.norm(p)))
    ok = ok and complement_residual(bracket, np.array([X(p), Y(p)])) >= 1e-1
    _report(10, "kernel distribution involutive", ok)


def test_criterion_11_cli_contract(capsys):
    ok = True

    def run(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    # golden outputs, exit 0
    code, out = run(["check", "ideal_gas", "--no-timestamp",
                     "--point", "1,1,1", "--point", "2,1,1"])
    ok = ok and code == 0
    ok = ok and out == (GOLDEN / "check_ideal_gas.json").read_text()
    code, out = run(["curvature", "kerr_newman_radiant",
                     "--slice", "0,0,1=0.25", "--grid", "1:2:3,0.1:0.3:3",
                     "--no-timestamp"])
    ok = ok and code == 0
    ok = ok and out == (GOLDEN / "curvature_kn_radiant.csv").read_text()
    code, out = run(["legendre", "ideal_gas", "--slice", "0,0,1=1",
                     "--point", "1,1", "--point", "2.718281828459045,1",
                     "--no-timestamp"])
    ok = ok and code == 0
    ok = ok and out == (GOLDEN / "legendre_ideal_gas.json").read_text()
    # byte-identical rerun
    _, again = run(["check", "ideal_gas", "--no-timestamp",
                    "--point", "1,1,1", "--point", "2,1,1"])
    ok = ok and again == (GOLDEN / "check_ideal_gas.json").read_text()
    # exit codes 1, 2, 3
    code, _ = run(["check", "kerr_newman_naive", "--no-timestamp",
                   "--point", "2,0.5,0.3"])
    ok = ok and code == 1
    code, _ = run(["check", "no_such_model", "--point", "1,1,1"])
    capsys.readouterr()
    ok = ok and code == 2
    code, _ = run(["check", "ideal_gas", "--no-timestamp", "--point=-1,1,1"])
    capsys.readouterr()
    ok = ok and code == 3
    _report(11, "command-line contract", ok)
