import json
import re
import subprocess
import sys
import warnings
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import flatness_reference, sample_points
from hessiometric import cli, errors, expr, geometry, models, submanifold
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


# -- tolerances --------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["curvature", "ideal_gas", "--slice", "0,0,1=1", "--grid", "1:2:2,1:2:2", flag, "1e-8"]
    for flag in ("--tol-rank", "--tol-check")] + [
    ["legendre", "ideal_gas", "--slice", "0,0,1=1", "--point", "1,1", flag, "1e-9"]
    for flag in ("--tol-rank", "--tol-check")] + [
    ["check", "ideal_gas", "--point", "1,1,1", flag, "1e-9"]
    for flag in ("--tol-rank", "--tol-check")] + [
    ["report", "ideal_gas", flag, "1e-8"] for flag in ("--tol-rank", "--tol-check")])
def test_a_tolerance_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    # the thresholds are fixed: no subcommand accepts a tolerance
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_MODEL_ERROR
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_no_timestamp_reruns_are_byte_identical(capsys):
    argv = ["check", "paramagnet", "--no-timestamp", "--point", "1,0.2,1"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_report_does_not_accept_no_timestamp(capsys):
    # its table carries no timestamp
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "ideal_gas", "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == cli.EXIT_MODEL_ERROR
    assert captured.out == ""
    assert "unrecognized arguments: --no-timestamp" in captured.err


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


def test_exit_model_error_schema_name(tmp_path, capsys):
    # a parameter named like a coordinate: a usage error, not a rank-1 metric
    model = tmp_path / "shadow.json"
    model.write_text(json.dumps({"name": "shadow", "coordinates": ["U", "V"],
                                 "parameters": {"U": 2}, "entropy": "ln(U)+ln(V)"}))
    code, out, err = run_cli(["check", str(model), "--point", "1,1"], capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert err == (f"error: cannot load model {model}: coordinate and parameter names must "
                   "be distinct identifiers ([A-Za-z][A-Za-z0-9_]*), got 'U'\n")


def test_exit_model_error_non_finite_parameter(tmp_path, capsys):
    # an infinite R would make every row DOMAIN, a NaN one every point a domain error
    model = tmp_path / "inf.json"
    model.write_text('{"name": "inf", "coordinates": ["U", "V"], "parameters": {"R": Infinity}, '
                     '"entropy": "R*ln(U*V)", "domain": ["U - R", "V"]}')
    code, out, err = run_cli(["curvature", str(model), "--slice", "0,1=1", "--grid", "1:2:2"],
                             capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert err == (f"error: cannot load model {model}: 'parameters' must map strings to "
                   "finite numbers\n")


@pytest.mark.parametrize("entropy", ["U" + "+U" * 1000, "(" * 1000 + "U" + ")" * 1000,
                                     "-" * 1000 + "U", "U" + "^U" * 1000],
                         ids=["sum", "parentheses", "minus", "power"])
def test_exit_model_error_expression_too_deep(entropy, tmp_path, capsys):
    model = tmp_path / "deep.json"
    model.write_text(json.dumps({"name": "deep", "coordinates": ["U", "V"],
                                 "entropy": entropy}))
    code, out, err = run_cli(["check", str(model), "--point", "1,1"], capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert re.fullmatch(r"error: cannot load model .*: expression nests deeper than 100 "
                        r"levels \(at offset \d+\)\n", err)


def test_exit_model_error_model_file_not_utf8(tmp_path, capsys):
    model = tmp_path / "latin1.json"
    model.write_bytes(b'{"name": "caf\xe9", "coordinates": ["U"], "entropy": "ln(U)"}\xff')
    code, out, err = run_cli(["check", str(model), "--point", "1"], capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert err.startswith(f"error: cannot load model {model}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def _errors(cls):
    return [cls] + [e for sub in cls.__subclasses__() for e in _errors(sub)]


def test_each_error_type_carries_its_exit_code(monkeypatch, capsys):
    # every HessiometricError exits 2 (model or usage), except DomainError: 3
    raised = _errors(errors.HessiometricError)
    assert len(raised) == 8
    for cls in raised:
        error = cls.__new__(cls)  # each with one message, whatever its constructor
        Exception.__init__(error, f"a {cls.__name__}")

        def resolve(arg, error=error):
            raise error
        monkeypatch.setattr(cli, "_resolve_model", resolve)
        expected = 3 if issubclass(cls, errors.DomainError) else 2
        assert cls.exit_code == expected
        assert run_cli(["check", "ideal_gas", "--point", "1,1,1"], capsys) == (
            expected, "", f"error: a {cls.__name__}\n")
    assert (cli.EXIT_MODEL_ERROR, cli.EXIT_DOMAIN_ERROR) == (2, 3)


def test_exit_model_error_malformed_slice(capsys):
    code, _, _ = run_cli(["curvature", "ideal_gas", "--slice", "0,0,1",
                          "--grid", "1:2:2,1:2:2"], capsys)
    assert code == cli.EXIT_MODEL_ERROR


@pytest.mark.parametrize("command, tail", [("curvature", ["--grid", "1:2:2"]),
                                           ("legendre", ["--point", "1"])])
def test_slice_rows_of_unequal_length_are_a_usage_error(command, tail, capsys):
    code, out, err = run_cli([command, "ideal_gas", "--slice", "0,0,1=1;0,1=1", *tail], capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert err == "error: slice rows have 2 entries, model dimension is 3\n"


@pytest.mark.parametrize("spec", ["inf,0,1=1", "nan,0,1=1", "0,0,1=inf"])
def test_non_finite_slice_is_usage_error(spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["curvature", "ideal_gas", "--slice", spec,
                                  "--grid", "1:2:2,1:2:2"], capsys)
    assert code == cli.EXIT_MODEL_ERROR
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("grid", ["nan:1:2,0.1:0.2:2", "inf:inf:1,0.1:0.1:1",
                                  "1:2:2,0.1:1e309:2", "1e308:-1e308:3,0.1:0.2:1",
                                  "1:2:100000000000,0.1:0.2:1"])
def test_non_finite_or_oversized_grid_is_usage_error(grid, monkeypatch, capsys):
    # a non-finite bound or span, or more than MAX_GRID_POINTS points, is
    # rejected before any axis is built: the 1e11-point grid is never allocated
    def build_no_axis(*args, **kwargs):
        raise AssertionError("a grid axis was built")

    monkeypatch.setattr(np, "linspace", build_no_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["curvature", "kerr_newman_radiant", "--slice", "0,0,1=0.25",
                                  "--grid", grid], capsys)
    assert (code, out) == (cli.EXIT_MODEL_ERROR, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_grid_of_more_than_max_grid_points_is_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 6)
    argv = ["curvature", "ideal_gas", "--slice", "0,0,1=1", "--grid"]
    assert run_cli(argv + ["1:2:3,1:2:2"], capsys)[0] == cli.EXIT_OK
    assert run_cli(argv + ["1:2:7,1:2:1"], capsys) == (
        cli.EXIT_MODEL_ERROR, "", "error: grid has 7 points, more than 6\n")


def test_grid_and_lattice_lay_out_points_as_the_cartesian_product():
    # the reference is itertools.product: the same values, the last axis fastest
    zs = cli._parse_grid("0.3:2:1000,0.05:0.35:1000", 2)
    reference = np.array(list(product(np.linspace(0.3, 2, 1000), np.linspace(0.05, 0.35, 1000))))
    assert zs.shape == reference.shape and zs.tobytes() == reference.tobytes()
    for dim in range(1, 9):  # report's lattice in every model dimension
        lattice = cli._cartesian([(0.5, 1.0, 2.0)] * dim)
        reference = np.array(list(product((0.5, 1.0, 2.0), repeat=dim)))
        assert lattice.shape == reference.shape and lattice.tobytes() == reference.tobytes()


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


@pytest.mark.parametrize("point", ["1e20,1e100,1e-20", "1,1e150,1"])
def test_gibbs_duhem_overflow_is_a_domain_error(point, capsys):
    # g and dg are finite, but the norms of g and of g applied to the radiant
    # vector leave the float range: the residual would print as NaN
    code, out, err = run_cli(["check", "paramagnet", "--no-timestamp",
                              "--point", point], capsys)
    assert (code, out, err) == (cli.EXIT_DOMAIN_ERROR, "",
                                "error: Gibbs-Duhem residual is not finite\n")


def test_gibbs_duhem_residual_is_zero_where_only_its_denominator_overflows(capsys):
    code, out, _ = run_cli(["check", "ideal_gas", "--no-timestamp",
                            "--point", "1e200,0.5,1e100"], capsys)
    gd = [c for c in json.loads(out)["checks"] if c["check"] == "gibbs_duhem"]
    assert code == cli.EXIT_OK and gd[0]["residual"] == 0.0


def test_an_argument_that_underflows_to_zero_is_named_as_such(tmp_path, capsys):
    # every coordinate is positive, but U**1.5 and x1*x2 underflow to 0.0
    model = tmp_path / "root.json"
    model.write_text(json.dumps({"name": "root", "coordinates": ["x1", "x2"],
                                 "entropy": "sqrt(x1*x2)", "domain": ["x1", "x2"]}))
    for argv, fn in ((["ideal_gas", "--point", "1e-200,1e-20,1e20"], "ln"),
                     ([str(model), "--point", "1e-200,1e-200"], "sqrt")):
        assert run_cli(["check", *argv], capsys) == (
            cli.EXIT_DOMAIN_ERROR, "", f"error: {fn} of zero or underflowed value 0.0\n")


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


@pytest.mark.parametrize("point", ["inf,1", "-1,1"])
def test_legendre_reports_the_domain_violation(point, capsys):
    # the domain is checked before the potential is evaluated, as in check
    code, out, err = run_cli(["legendre", "ideal_gas", "--slice", "0,0,1=1",
                              f"--point={point}"], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert out == ""
    assert re.fullmatch(r"error: point \[.*\] violates the domain of model "
                        r"'ideal_gas'\n", err)


def test_legendre_names_the_point_whose_stencil_leaves_the_domain(capsys):
    # z = (1e-5, 1) lies in the domain; the Jacobian's stencil point U = -9e-5 does not
    assert run_cli(["legendre", "ideal_gas", "--slice", "0,0,1=1", "--point", "1e-5,1"],
                   capsys) == (cli.EXIT_DOMAIN_ERROR, "", "error: the Jacobian's stencil around "
                               "z=[[1e-05, 1.0]], at steps ±1e-4·(1+|z|) and twice that, "
                               "left the domain\n")


def _constant_operand_runs(entropy, tmp_path, capsys):
    """(code, stdout, stderr) of check (order 3), curvature (4) and legendre (2)."""
    model = tmp_path / "constant.json"
    model.write_text(json.dumps({"name": "constant", "coordinates": ["U", "V"],
                                 "entropy": entropy, "domain": ["U", "V"]}))
    return [run_cli([command, str(model), *argv, "--no-timestamp"], capsys)
            for command, argv in (("check", ["--point", "1,2"]),
                                  ("curvature", ["--slice", "0,1=1", "--grid", "1:2:2"]),
                                  ("legendre", ["--slice", "0,1=1", "--point", "1.5"]))]


def test_constant_operands_are_values(tmp_path, capsys):
    # a constant carries no derivatives: its reciprocal, ln and power are taken
    # at order 0, so every subcommand evaluates these models
    runs = {entropy: _constant_operand_runs(entropy, tmp_path, capsys)
            for entropy in ["V*ln(U/V)/1e-63", "V*ln(U/V)*1e63", "V*ln(U/V) + ln(1e-200)*V",
                            "V*ln(U/V)*(1e-70)^(-4)"]}
    assert all(code == cli.EXIT_OK for outcomes in runs.values() for code, _, _ in outcomes)

    def values(outcomes):  # quantities of scale 1e63 (residuals and zero eigenvalues are roundoff)
        check, scan, legendre = (out for _, out, _ in outcomes)
        point = json.loads(legendre)["points"][0]
        return [json.loads(check)["checks"][1]["value"]["eigenvalues"][-1],
                *(float(row.split(",")[2]) for row in scan.splitlines()[1:]),
                point["phi_star"], point["phi_star_extensive_form"], *point["dual_coordinates"]]
    np.testing.assert_allclose(values(runs["V*ln(U/V)/1e-63"]), values(runs["V*ln(U/V)*1e63"]),
                               rtol=1e-14, atol=0)
    # a divisor whose reciprocal itself leaves the float range fails at every order
    message = "error: derivatives of reciprocal at 2.225073858507e-311 leave the float range\n"
    assert _constant_operand_runs("V*ln(U/V)/2.225073858507e-311", tmp_path, capsys) == \
        [(cli.EXIT_DOMAIN_ERROR, "", message)] * 3


@pytest.mark.parametrize("points, message", [
    (["1e200,1e200,1e200", "-1,1,1"],
     "expression value or derivatives are not finite"),
    (["-1,1,1", "1e200,1e200,1e200"],
     "point [-1.0, 1.0, 1.0] violates the domain of model 'ideal_gas'"),
    (["1,1,1", "1e308,1,1"],
     "derivatives of pow_const at 1e+308 leave the float range")])
def test_check_first_failing_point_decides_the_error(points, message, capsys):
    # one batch raises on any of its points; the message is the one the
    # first failing point in input order gives alone
    code, out, err = run_cli(["check", "ideal_gas", "--no-timestamp",
                              *(f"--point={p}" for p in points)], capsys)
    assert code == cli.EXIT_DOMAIN_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_diagnostic_failure_before_a_domain_violation_decides_the_error(capsys):
    # each point of the rerun runs its diagnostics before the next point's jet
    assert run_cli(["check", "paramagnet", "--no-timestamp", "--point=1,1e150,1",
                    "--point=-1,1,1"], capsys) == (
        cli.EXIT_DOMAIN_ERROR, "", "error: Gibbs-Duhem residual is not finite\n")


@pytest.mark.parametrize("points, code, message", [
    (["-1,1", "1e308,1"], cli.EXIT_DOMAIN_ERROR,
     "point [-1.0, 1.0, 1.0] violates the domain of model 'ideal_gas'"),
    (["1e308,1", "-1,1"], cli.EXIT_DOMAIN_ERROR,
     "derivatives of pow_const at 1e+308 leave the float range"),
    (["1,1", "1"], cli.EXIT_MODEL_ERROR,
     "point [1.0] has 1 components, slice dimension is 2"),
    # every length is checked before any evaluation, as in check
    (["-1,1", "1"], cli.EXIT_MODEL_ERROR,
     "point [1.0] has 1 components, slice dimension is 2"),
    # the order-2 pullback walks first: U**1.5 underflows to 0.0, while
    # curvature's order-4 walk fails earlier, on U**-2.5 overflowing
    (["1,1", "1e-300,1"], cli.EXIT_DOMAIN_ERROR,
     "ln of zero or underflowed value 0.0")])
def test_legendre_first_failing_point_decides_the_error(points, code, message, capsys):
    assert run_cli(["legendre", "ideal_gas", "--slice", "0,0,1=1", "--no-timestamp",
                    *(f"--point={p}" for p in points)], capsys) == \
        (code, "", f"error: {message}\n")


# two-point grids a:b:2,c:c:1 on which one block's error is not the first failing point's
# own, sampled from a sweep over every builtin, plus two whose points fail alike
FAILING_GRIDS = [
    ("ideal_gas", "0,0,1=1", "1", "1e-250", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1", "1e-250", "1e200"),
    ("ideal_gas", "0,0,1=1", "1", "1e300", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1e-110", "1e-300", "1e200"),
    ("ideal_gas", "0,0,1=1", "1e-110", "1e300", "1e300"),
    ("ideal_gas", "0,0,1=1", "1e-80", "1e-300", "1e200"),
    ("ideal_gas", "0,0,1=1", "1e110", "1", "1e200"),
    ("ideal_gas", "0,0,1=1", "1e110", "1e-160", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1e110", "1e-250", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1e160", "1e-80", "1e-300"),
    ("ideal_gas", "0,0,1=1", "1e160", "1e80", "1e-300"),
    ("ideal_gas", "0,0,1=1", "1e200", "1e-160", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1e200", "1e300", "1e-200"),
    ("ideal_gas", "0,0,1=1", "1e200", "1e300", "1e200"),
    ("ideal_gas", "0,0,1=1", "1e80", "1e-200", "1e-200"),
    ("ideal_gas", "0,1,0=1e-300", "1", "1e-300", "1e-200"),
    ("ideal_gas", "0,1,0=1e-300", "1e-110", "1e-160", "1e300"),
    ("ideal_gas", "0,1,0=1e-300", "1e-110", "1e-250", "1e-200"),
    ("ideal_gas", "0,1,0=1e-300", "1e110", "1e-250", "1e-200"),
    ("ideal_gas", "0,1,0=1e-300", "1e160", "1e-300", "1e200"),
    ("ideal_gas", "0,1,0=1e-300", "1e80", "1e-250", "1e-300"),
    ("ideal_gas", "0,1,0=1e-300", "1e80", "1e-300", "1e300"),
    ("paramagnet", "0,0,1=1", "1e-80", "1e-160", "1e300"),
    ("paramagnet", "0,0,1=1", "1e-80", "1e-250", "1e200"),
    ("paramagnet", "0,0,1=1", "1e-80", "1e-300", "1e-200"),
    ("paramagnet", "0,0,1=1", "1e-80", "1e110", "1e200"),
    ("paramagnet", "0,0,1=1", "1e-80", "1e80", "1e-300"),
    ("paramagnet", "1,0,0=1e-300", "1e-300", "1e-250", "1e300"),
    ("ideal_gas", "1,0,0=1e300", "1e-300", "1e-110", "1e300")]


def test_curvature_first_failing_point_decides_the_error(capsys):
    def scan(model, spec, grid):
        return run_cli(["curvature", model, "--slice", spec, "--grid", grid], capsys)

    assert scan("ideal_gas", "0,0,1=1", "1e-110:1e-300:2,1:1:1") == (
        cli.EXIT_DOMAIN_ERROR, "",
        "error: derivatives of ln at 1.0000000000000001e-165 leave the float range\n")
    for model, spec, a, b, c in FAILING_GRIDS:
        # the grid's points are exactly a and b: the oracle scans each alone
        alone = [scan(model, spec, f"{z}:{z}:1,{c}:{c}:1") for z in (a, b)]
        first = next(r for r in alone if r[0] != cli.EXIT_OK)
        assert first[1] == "" and first[2].startswith("error: ")
        assert scan(model, spec, f"{a}:{b}:2,{c}:{c}:1") == first, (model, spec, a, b, c)


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


@pytest.mark.parametrize("name, code", [("ideal_gas", cli.EXIT_OK),
                                        ("kerr_newman_naive", cli.EXIT_CHECK_FAILED)])
def test_check_entries_of_two_blocks_equal_the_single_point_entries(name, code, tmp_path,
                                                                    capsys):
    # the block boundary falls inside the points; every diagnostic runs once
    # per block, and each entry equals the one its point gives alone
    model = models.builtin(name)
    points = sample_points(name, cli._BLOCK + 30, np.random.default_rng(53))
    csv_file = tmp_path / "points.csv"
    csv_file.write_text("".join(",".join(map(repr, p)) + "\n" for p in points.tolist()))
    single = [e for p in points for e in cli._point_checks(model, p[None])[0]]
    cli._apply_euler_spread(single)
    assert run_cli(["check", name, "--no-timestamp", "--points", str(csv_file)], capsys) == (
        code, json.dumps({"model": name, "version": cli.__version__, "checks": single},
                         indent=2) + "\n", "")


@pytest.mark.parametrize("name", models.BUILTIN_NAMES)
def test_psd_and_kernel_entries_read_one_spectrum_of_g(name, monkeypatch, tmp_path, capsys):
    # over a batch and over single points: one eigh per check block and no
    # eigvalsh, and each psd lambda_min is the kernel's eigenvalues[0] bit for bit
    points = sample_points(name, 12, np.random.default_rng(61)).tolist()
    csv_file = tmp_path / "points.csv"
    csv_file.write_text("".join(",".join(map(repr, p)) + "\n" for p in points))
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (np.linalg.eigh, np.linalg.eigvalsh):
        monkeypatch.setattr(np.linalg, fn.__name__, counted(fn))
    runs = [(["--points", str(csv_file)], len(points))] + [
        (["--point", ",".join(map(repr, p))], 1) for p in points]
    for tail, count in runs:
        calls.clear()
        code, out, _ = run_cli(["check", name, "--no-timestamp", *tail], capsys)
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
        assert calls == {"eigh": 1}
        values = {check: [e["value"] for e in json.loads(out)["checks"] if e["check"] == check]
                  for check in ("psd", "kernel")}
        assert len(values["psd"]) == count
        assert [v["lambda_min"].hex() for v in values["psd"]] == \
            [v["eigenvalues"][0].hex() for v in values["kernel"]]


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


@pytest.mark.parametrize("target", ["directory", "missing_dir/x.csv"])
def test_curvature_unwritable_out_is_usage_error(target, tmp_path, capsys):
    out_path = tmp_path if target == "directory" else tmp_path / target
    code, out, err = run_cli(["curvature", "ideal_gas", "--slice", "0,0,1=1",
                              "--grid", "1:2:2,1:2:2", "--out", str(out_path)],
                             capsys)
    assert code == cli.EXIT_MODEL_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {out_path}: ")


def _rows_formatted_per_value(model, sl, zs):
    """Curvature CSV rows as formatted one value at a time."""
    fmt = lambda x: format(float(x), ".17g")
    rows = [[fmt(v) for v in z] + ["", "", "", "DOMAIN"] for z in zs]
    inside = np.flatnonzero(model.domain_check(sl.embed(zs)))
    report = submanifold.curvature(submanifold.pullback_metric(model, sl, zs[inside]))
    conn = report.connection
    flatness = flatness_reference(2.0 * conn.gamma, 2.0 * conn.dgamma)
    for k, i in enumerate(inside):
        rows[i][-4:] = (["", "", "", "KERNEL"] if conn.singular[k] else
                        [fmt(report.scalar[k]), fmt(conn.eigenvalues[k, 0]),
                         fmt(flatness[k]), "OK"])
    return [",".join(row) for row in rows]


def test_curvature_rows_equal_the_per_value_format():
    statuses = set()
    for name, spec, axes in [
            ("kerr_newman_radiant", ([0, 0, 1], [0.25]),
             [np.linspace(0.3, 2.0, 9), np.linspace(0.05, 0.375, 8)]),
            ("ideal_gas", ([1, -1, 0], [0.0]),
             [np.linspace(-1.0, 1.5, 6), np.linspace(-0.5, 1.5, 5)]),
            ("paramagnet", ([1, 2, 3], [4.0]), [np.linspace(-1, 1, 7)] * 2)]:
        model, sl = models.builtin(name), submanifold.make_slice(*spec)
        # a KERNEL point of the KN slice, a signed zero, a tiny value, 1 + ulp
        zs = np.vstack([list(product(*axes)), [[0.5, 0.374999999999], [1.5, -0.0],
                                               [1.5, 1e-12], [1.0000000000000002, 0.1]]])
        rows = cli._curvature_rows(model, sl, zs)
        assert rows == _rows_formatted_per_value(model, sl, zs)
        statuses |= {row.rsplit(",", 1)[1] for row in rows}
    assert statuses == {"DOMAIN", "KERNEL", "OK"}


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

    row = cli._curvature_rows(model, sl, np.array([[1.5, 0.2]]))[0]
    assert row.rsplit(",", 1)[1] == "OK"
    assert counts["jet_order_4"] == 1
    assert counts["hessian_metric"] == 0
    assert counts["eigvalsh"] == 1 and counts["inv"] == 1
    assert counts["domain_check"] == 1 and counts["walk_order_1"] == 0
    # j is one float on the slice: the domain check of a one-point block
    # folds everything, the pullback composes only u^2 and sqrt
    assert counts["compose"] == 2
    counts.clear()
    row = cli._curvature_rows(model, sl, np.array([[0.3, 0.2]]))[0]
    assert row.rsplit(",", 1)[1] == "DOMAIN"
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

    statuses = scan("0.3:2:8,0.05:0.35:8")
    assert statuses["OK"] + statuses["DOMAIN"] == 64
    assert statuses["OK"] and statuses["DOMAIN"]
    assert counts["jet_order_4"] == 1
    assert counts["hessian_metric"] == 0
    assert counts["eigvalsh"] == 1 and counts["inv"] == 1
    # one value-only domain check: one order-0 walk per constraint
    assert counts["domain_check"] == 1
    assert counts["walk_order_0"] == len(model.domain) and counts["walk_order_1"] == 0
    assert counts["compose"] == 1 + 2  # u^2 in the domain check, then the pullback
    assert scan("0.05:0.2:8,0.05:0.35:8") == {"DOMAIN": 64}
    assert counts["jet_order_4"] == 0 and counts["domain_check"] == 1
    assert counts["eigvalsh"] == 0 and counts["inv"] == 0


def _count_ambient_work(monkeypatch):
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
    monkeypatch.setattr(geometry, "hessian_metric", counted(
        geometry.hessian_metric, lambda _: "hessian_metric"))
    return counts


@pytest.mark.parametrize("count, block, blocks", [
    (2, cli._BLOCK, 1), (100, cli._BLOCK, 1), (100, 40, 3)])
def test_check_evaluates_the_potential_once_per_block(count, block, blocks,
                                                      monkeypatch, tmp_path, capsys):
    points = tmp_path / "points.csv"
    rng = np.random.default_rng(count)
    points.write_text("".join(f"{u!r},{v!r},{n!r}\n"
                              for u, v, n in rng.uniform(0.5, 2.5, (count, 3)).tolist()))
    counts = _count_ambient_work(monkeypatch)
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out, _ = run_cli(["check", "ideal_gas", "--no-timestamp",
                            "--points", str(points)], capsys)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["checks"]) == 5 * count
    # the Euler defect reads the potential's value and gradient from the
    # same order-3 jet: no order-1 walk, and one domain check per block
    assert counts["jet_order_3"] == blocks and counts["hessian_metric"] == blocks
    assert counts["jet_order_4"] == 0
    assert counts["domain_check"] == blocks
    assert counts["walk_order_1"] == 0 and counts["jet_order_1"] == 0


def test_report_evaluates_the_potential_once(monkeypatch, capsys):
    counts = _count_ambient_work(monkeypatch)
    code, out, _ = run_cli(["report", "ideal_gas"], capsys)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "report_ideal_gas.txt").read_text()
    assert counts["jet_order_3"] == 1 and counts["hessian_metric"] == 1
    assert counts["jet_order_4"] == counts["walk_order_1"] == 0


@pytest.mark.parametrize("block, blocks", [(cli._BLOCK, 1), (7, 3)])
def test_legendre_reads_each_point_from_one_pullback_jet(block, blocks,
                                                         monkeypatch, capsys):
    rng = np.random.default_rng(20)
    points = [f"--point={u!r},{v!r}" for u, v in rng.uniform(0.5, 2.5, (20, 2)).tolist()]
    counts = _count_ambient_work(monkeypatch)
    monkeypatch.setattr(cli, "_BLOCK", block)
    code, out, _ = run_cli(["legendre", "ideal_gas", "--slice", "0,0,1=1",
                            "--no-timestamp", *points], capsys)
    assert code == cli.EXIT_OK
    assert len(json.loads(out)["points"]) == 20
    # per block: one order-2 pullback jet, whose gradient is the dual
    # coordinates, then one ambient order-1 walk for the extensive form
    # and one over the stencils of the Jacobian; the jet and the stencils
    # each check the domain once
    assert counts["jet_order_2"] == blocks and counts["hessian_metric"] == 0
    assert counts["jet_order_4"] == 0
    assert counts["jet_order_1"] == counts["walk_order_1"] == 2 * blocks
    assert counts["domain_check"] == 2 * blocks


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
