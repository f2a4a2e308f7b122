import json
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hessiometric import cli, expr, geometry, models, submanifold
from hessiometric.jets import Jet

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden outputs ----------------------------------------------------

def test_check_golden(capsys):
    argv = ["check", "ideal_gas", "--no-timestamp",
            "--point", "1,1,1", "--point", "2,1,1"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "check_ideal_gas.json").read_text()


def test_curvature_golden(capsys):
    argv = ["curvature", "kerr_newman_radiant", "--slice", "0,0,1=0.25",
            "--grid", "1:2:3,0.1:0.3:3", "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "curvature_kn_radiant.csv").read_text()


def test_legendre_golden(capsys):
    argv = ["legendre", "ideal_gas", "--slice", "0,0,1=1",
            "--point", "1,1", "--point", "2.718281828459045,1",
            "--no-timestamp"]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "legendre_ideal_gas.json").read_text()


def test_report_golden(capsys):
    code, out, _ = run_cli(["report", "ideal_gas"], capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "report_ideal_gas.txt").read_text()


def test_no_timestamp_reruns_are_byte_identical(capsys):
    argv = ["check", "paramagnet", "--no-timestamp", "--point", "1,0.2,1"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(["check", "ideal_gas", "--point", "1,1,1"], capsys)
    assert "timestamp" in json.loads(out)


# -- exit codes --------------------------------------------------------

def test_exit_ok(capsys):
    code, _, _ = run_cli(["check", "ideal_gas", "--no-timestamp",
                          "--point", "1,1,1"], capsys)
    assert code == cli.EXIT_OK


def test_exit_check_failed_indefinite_model(capsys):
    code, out, _ = run_cli(["check", "kerr_newman_naive", "--no-timestamp",
                            "--point", "2,0.5,0.3", "--point", "1.5,0.4,0.2"],
                           capsys)
    assert code == cli.EXIT_CHECK_FAILED
    report = json.loads(out)
    psd = [c for c in report["checks"] if c["check"] == "psd"]
    euler = [c for c in report["checks"] if c["check"] == "euler_defect"]
    assert all(c["verdict"] == "fail" for c in psd)
    assert all(c["verdict"] == "fail" for c in euler)


def test_exit_model_error_unknown_model(capsys):
    code, _, err = run_cli(["check", "no_such_model", "--point", "1,1,1"],
                           capsys)
    assert code == cli.EXIT_MODEL_ERROR
    assert "no such model" in err


def test_exit_model_error_bad_schema(capsys):
    code, _, err = run_cli(["check", str(DATA / "broken_schema.json"),
                            "--point", "1,1"], capsys)
    assert code == cli.EXIT_MODEL_ERROR
    assert "error" in err


def test_exit_model_error_malformed_slice(capsys):
    code, _, _ = run_cli(["curvature", "ideal_gas", "--slice", "0,0,1",
                          "--grid", "1:2:2,1:2:2"], capsys)
    assert code == cli.EXIT_MODEL_ERROR


@pytest.mark.parametrize("spec", ["inf,0,1=1", "nan,0,1=1", "0,0,1=inf"])
def test_non_finite_slice_is_usage_error(spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["curvature", "ideal_gas", "--slice", spec,
                                  "--grid", "1:2:2,1:2:2"], capsys)
    assert code == cli.EXIT_MODEL_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_model_error_dimension_mismatch(capsys):
    code, _, _ = run_cli(["check", "ideal_gas", "--point", "1,1"], capsys)
    assert code == cli.EXIT_MODEL_ERROR


def test_exit_domain_error(capsys):
    code, _, err = run_cli(["check", "ideal_gas", "--no-timestamp",
                            "--point=-1,1,1"], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert "error" in err


@pytest.mark.parametrize("point", ["1e308,1,1", "1e-100,1,1", "inf,1,1"])
def test_extreme_points_are_domain_errors(point, capsys):
    # overflow, underflow to a zero divisor, and a non-finite coordinate
    code, out, err = run_cli(["check", "ideal_gas", "--no-timestamp",
                              "--point", point], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "ideal_gas", "--point", "1e200,1e200,1e200"],
    ["check", "paramagnet", "--point", "1,inf,1"],
    ["legendre", "ideal_gas", "--slice", "0,0,1=1", "--point", "inf,1"]])
def test_domain_errors_print_no_numpy_warnings(argv):
    proc = subprocess.run([sys.executable, "-m", "hessiometric", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_DOMAIN_ERROR
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")


def test_non_finite_point_is_outside_every_domain(tmp_path, capsys):
    # a model without domain constraints would otherwise print Infinity
    model = tmp_path / "nodomain.json"
    model.write_text(json.dumps({"name": "nodomain", "coordinates": ["U", "V"],
                                 "entropy": "exp(-U) + ln(V)"}))
    code, out, err = run_cli(["check", str(model), "--point", "inf,1"], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert out == ""
    assert err.startswith("error: ")


# -- model files -------------------------------------------------------

def test_file_model_matches_builtin(capsys):
    argv = lambda m: ["check", m, "--no-timestamp", "--point", "1.2,0.8,1.5"]
    code_f, out_f, _ = run_cli(argv(str(DATA / "ideal_gas.json")), capsys)
    code_b, out_b, _ = run_cli(argv("ideal_gas"), capsys)
    assert code_f == code_b == cli.EXIT_OK
    file_report = json.loads(out_f)
    builtin_report = json.loads(out_b)
    assert file_report["model"] == "ideal_gas_file"
    file_report["model"] = builtin_report["model"]
    assert file_report == builtin_report


def test_file_model_kn_naive_fails_checks(capsys):
    code, _, _ = run_cli(["check", str(DATA / "kn_naive.json"),
                          "--no-timestamp", "--point", "2,0.5,0.3"], capsys)
    assert code == cli.EXIT_CHECK_FAILED


def test_points_csv_file(tmp_path, capsys):
    csv_file = tmp_path / "points.csv"
    csv_file.write_text("1,1,1\n2,1,1\n")
    code, out, _ = run_cli(["check", "ideal_gas", "--no-timestamp",
                            "--points", str(csv_file)], capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "check_ideal_gas.json").read_text()


# -- curvature scan behavior -------------------------------------------

def test_curvature_out_file(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    argv = ["curvature", "kerr_newman_radiant", "--slice", "0,0,1=0.25",
            "--grid", "1:2:3,0.1:0.3:3", "--no-timestamp",
            "--out", str(out_path)]
    code, out, _ = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    assert out == ""
    assert out_path.read_text() \
        == (GOLDEN / "curvature_kn_radiant.csv").read_text()


def test_curvature_status_rows(capsys):
    # slice tangent to the radiant direction: every grid point is KERNEL
    code, out, _ = run_cli(["curvature", "ideal_gas",
                            "--slice", "1,-1,0=0",
                            "--grid", "0.9:1.1:2,0.9:1.1:2",
                            "--no-timestamp"], capsys)
    assert code == cli.EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert all(row.endswith(",KERNEL") for row in rows)


def test_curvature_domain_rows(capsys):
    code, out, _ = run_cli(["curvature", "ideal_gas",
                            "--slice", "0,0,1=1",
                            "--grid=-1:1:2,1:1:1", "--no-timestamp"],
                           capsys)
    assert code == cli.EXIT_OK
    rows = out.strip().splitlines()[1:]
    statuses = [row.rsplit(",", 1)[1] for row in rows]
    assert statuses == ["DOMAIN", "OK"]


def test_curvature_in_domain_evaluation_failure_is_domain_error(tmp_path,
                                                               capsys):
    # the declared domain misses ln's constraint: not a DOMAIN row
    model = tmp_path / "partial_domain.json"
    model.write_text(json.dumps({"name": "partial", "coordinates": ["u", "v"],
                                 "entropy": "ln(u - 1) + ln(v)",
                                 "domain": ["u", "v"]}))
    code, out, err = run_cli(["curvature", str(model), "--slice", "0,1=1",
                              "--grid", "0.5:2:2", "--no-timestamp"], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert out == "" and err.startswith("error: ")


def test_thread_env_var_does_not_change_output(capsys, monkeypatch):
    argv = ["curvature", "kerr_newman_radiant", "--slice", "0,0,1=0.25",
            "--grid", "1:2:3,0.1:0.3:3", "--no-timestamp"]
    monkeypatch.delenv("HESSIOMETRIC_THREADS", raising=False)
    _, serial, _ = run_cli(argv, capsys)
    monkeypatch.setenv("HESSIOMETRIC_THREADS", "4")
    _, threaded, _ = run_cli(argv, capsys)
    assert serial == threaded == \
        (GOLDEN / "curvature_kn_radiant.csv").read_text()


def test_curvature_row_evaluates_the_potential_once(monkeypatch, capsys):
    model = models.builtin("kerr_newman_radiant")
    sl = submanifold.make_slice([0, 0, 1], [0.25])
    counts = Counter()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key(result)] += 1
            return result
        return wrapper

    monkeypatch.setattr(expr, "eval_finite", counted(
        expr.eval_finite, lambda jet: f"jet_order_{jet.order}"))
    monkeypatch.setattr(expr, "eval_on", counted(
        expr.eval_on, lambda jet: f"walk_order_{jet.order}"))
    monkeypatch.setattr(models.PotentialModel, "domain_check", counted(
        models.PotentialModel.domain_check, lambda _: "domain_check"))
    metric = counted(geometry.hessian_metric, lambda _: "hessian_metric")
    monkeypatch.setattr(geometry, "hessian_metric", metric)
    monkeypatch.setattr(submanifold, "hessian_metric", metric)
    for name in ("eigvalsh", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(
            getattr(np.linalg, name), lambda _, name=name: name))
    monkeypatch.setattr(Jet, "compose", counted(Jet.compose, lambda _: "compose"))

    assert cli._curvature_rows(model, sl, np.array([[1.5, 0.2]]))[0][-1] == "OK"
    assert counts["jet_order_4"] == 1
    assert counts["hessian_metric"] == 0
    assert counts["eigvalsh"] == 1 and counts["inv"] == 1
    assert counts["domain_check"] == 1 and counts["walk_order_1"] == 0
    # j is one float on the slice: the domain check of a one-point block
    # folds everything, the pullback composes only u^2 and sqrt
    assert counts["compose"] == 2
    counts.clear()
    assert cli._curvature_rows(model, sl, np.array([[0.3, 0.2]]))[0][-1] == "DOMAIN"
    assert counts["jet_order_4"] == 0
    assert counts["domain_check"] == 1

    # a 64-point scan call across the extremal boundary: the same work
    # for the whole grid as for one point
    def scan(grid):
        counts.clear()
        code, out, _ = run_cli(["curvature", "kerr_newman_radiant", "--slice",
                                "0,0,1=0.25", "--grid", grid, "--no-timestamp"],
                               capsys)
        assert code == cli.EXIT_OK
        return Counter(row.rsplit(",", 1)[1] for row in out.splitlines()[1:])

    # (the call also inverts the adapted chart of its slice once)
    statuses = scan("0.3:2:8,0.05:0.35:8")
    assert statuses["OK"] + statuses["DOMAIN"] == 64
    assert statuses["OK"] and statuses["DOMAIN"]
    assert counts["jet_order_4"] == 1
    assert counts["hessian_metric"] == 0
    assert counts["eigvalsh"] == 1 and counts["inv"] == 1 + 1
    # one value-only domain check: one order-0 walk per constraint
    assert counts["domain_check"] == 1
    assert counts["walk_order_0"] == len(model.domain) and counts["walk_order_1"] == 0
    assert counts["compose"] == 1 + 2  # u^2 in the domain check, then the pullback
    assert scan("0.05:0.2:8,0.05:0.35:8") == {"DOMAIN": 64}
    assert counts["jet_order_4"] == 0 and counts["domain_check"] == 1
    assert counts["eigvalsh"] == 0 and counts["inv"] == 0 + 1


def test_values_round_trip_full_precision(capsys):
    # shortest round-trip formatting: parsing the CSV back reproduces floats
    code, out, _ = run_cli(["curvature", "ideal_gas", "--slice", "0,0,1=1",
                            "--grid", "0.7:1.3:3,0.7:1.3:3",
                            "--no-timestamp"], capsys)
    assert code == cli.EXIT_OK
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    zs = np.array([[float(r[0]), float(r[1])] for r in rows])
    assert np.array_equal(np.unique(zs[:, 0]), np.linspace(0.7, 1.3, 3))


# -- module entry point ------------------------------------------------

def test_python_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "hessiometric", "check", "ideal_gas",
         "--no-timestamp", "--point", "1,1,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "ideal_gas"


def test_in_process_calls_print_what_a_fresh_process_prints(capsys):
    # the parser and the builtin expressions are built once per process
    calls = [["check", "ideal_gas", "--no-timestamp", "--point", "1,1,1"],
             ["check", "ideal_gas", "--no-timestamp", "--point", "2,0.5,3"],
             ["curvature", "kerr_newman_radiant", "--slice", "0,0,1=0.25",
              "--grid", "0.3:2:4,0.05:0.35:3", "--no-timestamp"]]
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "hessiometric", *argv],
                               capture_output=True, text=True)
        assert run_cli(argv, capsys)[:2] == (fresh.returncode, fresh.stdout)


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hessiometric.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_missing_points_is_usage_error(capsys):
    code, _, _ = run_cli(["check", "ideal_gas"], capsys)
    assert code == cli.EXIT_MODEL_ERROR
