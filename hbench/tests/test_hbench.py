"""Tests of the benchmark itself: oracle, seeded inputs, failure counting
and the tracer.  Run from the repository root:

    python3 -m pytest -q hbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "src"))

from hbench import check, oracle, run, workloads  # noqa: E402

GOLDEN_CURVATURE = REPO / "tests" / "golden" / "curvature_kn_radiant.csv"
GOLDEN_SPEC = {"type": "scan", "B": [0, 0, 1], "c": 0.25,
               "grid": [[1.0, 2.0, 3], [0.1, 0.3, 3]]}


def _cli(argv):
    from hessiometric import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# -- oracle ----------------------------------------------------------------

def test_oracle_reproduces_golden_curvature():
    text = GOLDEN_CURVATURE.read_text(encoding="utf-8")
    assert check.check_scan(check.References(), GOLDEN_SPEC, text) == (0, [])
    for row in text.splitlines()[1:]:
        u, q, scalar = (float(v) for v in row.split(",")[:3])
        assert oracle.kn_jslice_scalar(u, q, 0.25) == pytest.approx(scalar, rel=1e-13)


@pytest.mark.parametrize("name", ["ideal_gas", "paramagnet"])
def test_plain_metrics_match_sympy(name):
    rng = np.random.default_rng(0)
    for x in workloads._sample(rng, workloads.BOXES[name], 5):
        assert np.allclose(oracle.PLAIN_METRICS[name](x), oracle.metric_fn(name)(x),
                           rtol=1e-13, atol=0)


def test_kn_slice_metric_matches_sympy():
    for u, q, j in [(1.0, 0.1, 0.25), (0.6, 0.3, 0.4), (1.7, 0.05, 0.1)]:
        ambient = oracle.metric_fn("kerr_newman_radiant")((u, q, j))
        assert np.allclose(oracle.metric_kn_jslice((u, q), j), ambient[:2, :2],
                           rtol=1e-13, atol=0)


def test_kn_curvature_matches_finite_differences():
    """The exact curvature agrees with an independent finite-difference
    assembly from the closed-form slice metric."""
    u, q, j = 1.3, 0.2, 0.2
    h = 1e-3

    def christoffel(z):
        g = oracle.metric_kn_jslice(z, j)
        dg = []
        for k in range(2):
            e = np.eye(2)[k] * h
            dg.append((oracle.metric_kn_jslice(z + e, j)
                       - oracle.metric_kn_jslice(z - e, j)) / (2 * h))
        dg = np.array(dg)
        low = 0.5 * (np.einsum("abc->cab", dg) + np.einsum("bac->cab", dg) - dg)
        return np.einsum("cd,dab->cab", np.linalg.inv(g), low)

    z = np.array([u, q])
    gam = christoffel(z)
    dgam = np.array([(christoffel(z + np.eye(2)[k] * h) - christoffel(z - np.eye(2)[k] * h))
                     / (2 * h) for k in range(2)])
    riemann = (np.einsum("cadb->abcd", dgam) - np.einsum("dacb->abcd", dgam)
               + np.einsum("ace,edb->abcd", gam, gam) - np.einsum("ade,ecb->abcd", gam, gam))
    scalar = np.einsum("bd,bd->", np.linalg.inv(oracle.metric_kn_jslice(z, j)),
                       np.einsum("abad->bd", riemann))
    assert oracle.kn_jslice_scalar(u, q, j) == pytest.approx(scalar, rel=1e-5)


def test_oblique_slice_chart_matches_documented_completion():
    jac, offset, _ = oracle.slice_chart([1, 1, 0], [3.0])
    # U + V = 3 with coordinates z = ((V - U) / 2, N)
    assert np.allclose(jac @ [0.5, 2.0] + offset, [1.0, 2.0, 2.0])


# -- seeded inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.generate(workload, 7, a)
    workloads.generate(workload, 7, b)
    workloads.generate(workload, 8, c)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "plan.json").read_bytes() != (c / "plan.json").read_bytes()


def test_scan_crosses_the_extremal_boundary(tmp_path):
    props = workloads.generate("scan", 3, tmp_path)["properties"]
    assert 0.05 < props["domain_share"] < 0.35
    assert 0 < props["min_extremality"] < 0.05


# -- failure counting ------------------------------------------------------

@pytest.fixture(scope="module")
def scan_call(tmp_path_factory):
    plan = workloads.generate("scan", 1, tmp_path_factory.mktemp("scan"))
    call = plan["calls"][0]
    code, text = _cli(call["argv"])
    assert code == 0
    return call, text


def _perturb(text, status=None):
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        if cells[-1] == "OK":
            if status:
                cells[-1] = status
            else:
                cells[2] = repr(float(cells[2]) * (1 + 1e-6))
            lines[k] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError("no OK row")


def test_correct_scan_output_passes(scan_call):
    call, text = scan_call
    assert check.check_scan(check.References(), call["check"], text) == (0, [])


@pytest.mark.parametrize("status", [None, "KERNEL"])
def test_one_wrong_row_fails_one_point(scan_call, status):
    call, text = scan_call
    failed, msgs = check.check_scan(check.References(), call["check"], _perturb(text, status))
    assert failed == 1 and len(msgs) == 1


def test_traceback_fails_every_point_of_the_call(scan_call, tmp_path):
    call, text = scan_call
    (tmp_path / "out.txt").write_text(text, encoding="utf-8")
    plan = {"iterations": [], "calls": [call, call]}
    good = {"exit": 0, "seconds": 1.0, "stderr": "", "traceback": None, "out": "out.txt"}
    crashed = dict(good, exit=None, traceback="Traceback (most recent call last): ...")
    orc = check.References()
    assert check.check_pass(orc, plan, {"calls": [good, good]}, tmp_path)[0] == 0
    failed, _ = check.check_pass(orc, plan, {"calls": [good, crashed]}, tmp_path)
    assert failed == call["points"]
    wrong_exit = dict(good, exit=3)
    assert check.check_pass(orc, plan, {"calls": [wrong_exit, good]}, tmp_path)[0] \
        == call["points"]


def test_naive_model_check_is_expected_to_fail(tmp_path):
    plan = workloads.generate("check", 2, tmp_path)
    naive = [c for c in plan["calls"] if c["argv"][1] == "kerr_newman_naive"]
    assert naive and all(c["expect_exit"] == 1 for c in naive)
    code, text = _cli(["check", "kerr_newman_naive", "--point=" + ",".join(
        repr(v) for v in naive[0]["check"]["points"][0])])
    assert code == 1
    spec = dict(naive[0]["check"], points=naive[0]["check"]["points"][:1])
    assert check.check_check(check.References(), spec, text) == (0, [])


# -- end-to-end statistics -------------------------------------------------

def test_timings_are_second_slowest_repeats():
    plan = {"iterations": [], "points_per_pass": 30,
            "calls": [{"points": 10}, {"points": 20}]}
    passes = [{"wall_s": w, "setup_s": 0.5, "rss_kb": 2048, "points": [],
               "calls": [{"seconds": a}, {"seconds": b}]}
              for w, a, b in [(1.0, 0.1, 0.2), (9.0, 0.5, 0.2), (2.0, 0.2, 0.4),
                              (1.5, 0.1, 0.2), (1.2, 0.1, 0.2)]]
    m = {k: v for k, (v, _) in run.end_to_end(plan, passes, 0, 150).items()}
    assert m["wall_s"] == 2.0
    assert m["points_per_s"] == pytest.approx(30 / 0.6)
    # second-slowest repeats: 0.2 s / 10 points and 0.2 s / 20 points
    assert m["point_ms.p50"] == pytest.approx(15.0)
    assert m["point_ms.p99"] == pytest.approx(20.0)  # fewer than 1000 units: slowest
    assert m["peak_rss_mb"] == 2.0 and m["pass_share"] == 1.0


# -- tracer ----------------------------------------------------------------

def _traced_counts(tmp_path, workload, seed, keep):
    plan = workloads.generate(workload, seed, tmp_path)
    plan["calls"] = [c for c in plan["calls"] if keep(c)][:1]
    plan["points_per_pass"] = plan["calls"][0]["points"]
    (tmp_path / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    metrics = []
    for tag in ("t0", "t1"):
        result = run.run_pass(tmp_path, tag, trace=True)
        assert check.check_pass(check.References(), plan, result, tmp_path)[0] == 0
        metrics.append(run.layer_metrics(plan, result, tmp_path))
    counts = {k: v for k, (v, unit) in metrics[0].items() if unit == "calls/point"}
    assert counts == {k: v for k, (v, unit) in metrics[1].items() if unit == "calls/point"}
    return plan, counts


@pytest.fixture(autouse=True)
def _source_tree(monkeypatch):
    monkeypatch.setattr(run, "SRC", REPO / "src")


def test_traced_scan_counts_four_order4_six_order1_per_ok_row(tmp_path):
    plan, counts = _traced_counts(tmp_path, "scan", 1, lambda c: True)
    call = plan["calls"][0]
    (u_lo, u_hi, n_u), (q_lo, q_hi, n_q) = call["check"]["grid"]
    j = call["check"]["c"]
    ok = sum(oracle.in_domain("kerr_newman_radiant", (u, q, j))
             for u in np.linspace(u_lo, u_hi, n_u) for q in np.linspace(q_lo, q_hi, n_q))
    n = call["points"]
    assert 0 < ok < n
    assert counts["expr.eval_o4.calls_per_point"] * n == 4 * ok
    assert counts["expr.eval_o1.calls_per_point"] * n == 6 * ok + 2 * (n - ok)


def test_traced_check_counts_on_ideal_gas(tmp_path):
    _, counts = _traced_counts(tmp_path, "check", 1,
                               lambda c: c["argv"][:2] == ["check", "ideal_gas"])
    assert counts["expr.eval_o4.calls_per_point"] == 1
    assert counts["expr.eval_o1.calls_per_point"] == 7
    assert counts["geometry.hessian_metric.calls_per_point"] == 1


def test_traced_legendre_counts_on_kn_jslice(tmp_path):
    _, counts = _traced_counts(tmp_path, "legendre", 1,
                               lambda c: c["argv"][1] == "kerr_newman_radiant")
    assert counts["expr.eval_o4.calls_per_point"] == 2
    assert counts["expr.eval_o1.calls_per_point"] == 33
