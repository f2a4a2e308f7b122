"""Batch front-end: invariant checks, curvature scans, Legendre reports.

Exit codes: 0 all checks pass, 1 check failure, 2 model/usage errors,
3 domain violation.  A grid is evaluated as one batch per 1024 points;
the HESSIOMETRIC_THREADS environment variable is accepted and ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, geometry, models, submanifold
from .errors import (DegenerateSliceError, DomainError, HessiometricError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MODEL_ERROR = 2
EXIT_DOMAIN_ERROR = 3
_BLOCK = 1024  # grid points per batched evaluation: bounds a large scan's memory


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _resolve_model(arg: str) -> models.PotentialModel:
    path = Path(arg)
    if path.is_file():
        try:
            return models.load_model(path.read_text(encoding="utf-8"))
        except HessiometricError as e:
            raise _CliError(f"cannot load model {arg}: {e}", EXIT_MODEL_ERROR)
    if arg in models.BUILTIN_NAMES:
        return models.builtin(arg)
    raise _CliError(f"no such model file or builtin: {arg}", EXIT_MODEL_ERROR)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise _CliError(f"malformed point {text!r}", EXIT_MODEL_ERROR)


def _collect_points(args, dim) -> list:
    points = [_parse_vector(p) for p in args.point or []]
    if args.points:
        try:
            with open(args.points, newline="", encoding="utf-8") as fh:
                for row in csv.reader(fh):
                    if row:
                        points.append(np.array([float(v) for v in row]))
        except (OSError, ValueError) as e:
            raise _CliError(f"cannot read points file: {e}", EXIT_MODEL_ERROR)
    if not points:
        raise _CliError("no points given (use --point or --points)",
                        EXIT_MODEL_ERROR)
    for p in points:
        if p.shape[0] != dim:
            raise _CliError(f"point {p.tolist()} has {p.shape[0]} components, "
                            f"model dimension is {dim}", EXIT_MODEL_ERROR)
    return points


def _parse_slice(text: str, dim: int) -> submanifold.SliceSpec:
    rows, consts = [], []
    for row_text in text.split(";"):
        if "=" not in row_text:
            raise _CliError(f"slice row {row_text!r} lacks '=c'",
                            EXIT_MODEL_ERROR)
        coeffs, _, const = row_text.partition("=")
        rows.append(_parse_vector(coeffs))
        try:
            consts.append(float(const))
        except ValueError:
            raise _CliError(f"malformed slice constant {const!r}",
                            EXIT_MODEL_ERROR)
    B = np.vstack(rows)
    if B.shape[1] != dim:
        raise _CliError(f"slice rows have {B.shape[1]} entries, model "
                        f"dimension is {dim}", EXIT_MODEL_ERROR)
    try:
        return submanifold.make_slice(B, np.array(consts))
    except HessiometricError as e:
        raise _CliError(str(e), EXIT_MODEL_ERROR)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- check -------------------------------------------------------------

def _point_checks(model, point, tol_rank, tol_check):
    mf = geometry.hessian_metric(model, point)
    verdict_psd, lam_min = geometry.psd_check(mf, tol_rank)
    kb = geometry.kernel(mf, tol_rank)
    gd = geometry.gibbs_duhem_residual(mf)
    cd = geometry.codazzi_residual(mf)
    defect = geometry.euler_defect(model, point)
    kernel_dim = mf.g.shape[0] - kb.rank
    return [
        {"check": "psd", "point": point.tolist(),
         "value": {"verdict": verdict_psd, "lambda_min": lam_min},
         "residual": max(0.0, -lam_min), "tolerance": tol_rank,
         "verdict": "pass" if verdict_psd == "psd" else "fail"},
        {"check": "kernel", "point": point.tolist(),
         "value": {"rank": kb.rank, "kernel_dim": kernel_dim,
                   "eigenvalues": kb.eigenvalues.tolist()},
         "residual": float(kernel_dim == 0), "tolerance": tol_rank,
         "verdict": "pass" if kernel_dim >= 1 else "fail"},
        {"check": "gibbs_duhem", "point": point.tolist(),
         "value": {"residual": gd},
         "residual": gd, "tolerance": tol_check,
         "verdict": "pass" if gd <= tol_check else "fail"},
        {"check": "codazzi", "point": point.tolist(),
         "value": {"residual": cd},
         "residual": cd, "tolerance": tol_check,
         "verdict": "pass" if cd <= tol_check else "fail"},
        {"check": "euler_defect", "point": point.tolist(),
         "value": {"defect": defect},
         "residual": 0.0, "tolerance": tol_check,
         "verdict": "pass"},  # spread verdict filled in across points
    ]


def _apply_euler_spread(entries, tol_check):
    defects = [e["value"]["defect"] for e in entries
               if e["check"] == "euler_defect"]
    if len(defects) < 2:
        return
    spread = max(defects) - min(defects)
    scale = 1.0 + max(abs(d) for d in defects)
    ok = spread <= tol_check * scale
    for e in entries:
        if e["check"] == "euler_defect":
            e["value"]["spread"] = spread
            e["residual"] = spread / scale
            e["verdict"] = "pass" if ok else "fail"


def _run_check(model, points, tol_rank, tol_check, with_timestamp):
    checks = []
    for point in points:
        try:
            checks.extend(_point_checks(model, point, tol_rank, tol_check))
        except DomainError as e:
            raise _CliError(str(e), EXIT_DOMAIN_ERROR)
    _apply_euler_spread(checks, tol_check)
    report = {"model": model.name, "version": __version__}
    if with_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["checks"] = checks
    code = EXIT_OK if all(c["verdict"] == "pass" for c in checks) \
        else EXIT_CHECK_FAILED
    return report, code


def cmd_check(args) -> int:
    model = _resolve_model(args.model)
    points = _collect_points(args, model.dim)
    report, code = _run_check(model, points, args.tol_rank, args.tol_check,
                              not args.no_timestamp)
    print(json.dumps(report, indent=2))
    return code


# -- curvature ---------------------------------------------------------

def _parse_grid(text: str, r: int):
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise _CliError(f"malformed grid axis {part!r} "
                            "(expected min:max:count)", EXIT_MODEL_ERROR)
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise _CliError(f"malformed grid axis {part!r}", EXIT_MODEL_ERROR)
        if count < 1:
            raise _CliError("grid count must be >= 1", EXIT_MODEL_ERROR)
        axes.append(np.linspace(lo, hi, count))
    if len(axes) != r:
        raise _CliError(f"grid has {len(axes)} axes, slice dimension is {r}",
                        EXIT_MODEL_ERROR)
    return np.array(list(product(*axes)))


def _curvature_rows(model, sl, zs):
    """CSV rows of the slice points ``zs`` (P, r) from one batch: DOMAIN and
    KERNEL by the domain and singular masks, else OK; in-domain failures raise."""
    rows = [[_fmt(v) for v in z] + ["", "", "", "DOMAIN"] for z in zs]
    xs = sl.embed(zs)
    inside = np.flatnonzero(model.domain_check(xs))
    if inside.size:
        report = submanifold.curvature(
            submanifold._pullback(model, sl, zs[inside], xs[inside]))
        conn = report.connection
        flatness = conn.dual_flatness()
        for k, i in enumerate(inside):
            rows[i][-4:] = (["", "", "", "KERNEL"] if conn.singular[k] else
                            [_fmt(report.scalar[k]), _fmt(conn.eigenvalues[k, 0]),
                             _fmt(flatness[k]), "OK"])
    return rows


def cmd_curvature(args) -> int:
    model = _resolve_model(args.model)
    sl = _parse_slice(args.slice, model.dim)
    zs = _parse_grid(args.grid, sl.slice_dim)
    rows = [row for start in range(0, len(zs), _BLOCK)
            for row in _curvature_rows(model, sl, zs[start:start + _BLOCK])]
    buffer = io.StringIO()
    header = [f"z{i+1}" for i in range(sl.slice_dim)]
    header += ["scalar_curvature", "lambda_min", "dual_flatness_residual",
               "status"]
    buffer.write(",".join(header) + "\n")
    for row in rows:
        buffer.write(",".join(row) + "\n")
    if args.out and args.out != "-":
        Path(args.out).write_text(buffer.getvalue(), encoding="utf-8",
                                  newline="\n")
    else:
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


# -- legendre ----------------------------------------------------------

def cmd_legendre(args) -> int:
    model = _resolve_model(args.model)
    sl = _parse_slice(args.slice, model.dim)
    points = [_parse_vector(p) for p in args.point or []]
    if not points:
        raise _CliError("no points given (use --point)", EXIT_MODEL_ERROR)
    entries = []
    for z in points:
        if z.shape[0] != sl.slice_dim:
            raise _CliError(f"point {z.tolist()} has {z.shape[0]} components, "
                            f"slice dimension is {sl.slice_dim}",
                            EXIT_MODEL_ERROR)
        try:
            dp = submanifold.dual_potential(model, sl, z)
            coords = submanifold.dual_coordinates(model, sl, z)
            inv_res = submanifold.legendre_invariance_residual(model, sl, z)
        except DomainError as e:
            raise _CliError(str(e), EXIT_DOMAIN_ERROR)
        except DegenerateSliceError as e:
            raise _CliError(str(e), EXIT_CHECK_FAILED)
        entries.append({"z": z.tolist(),
                        "phi_star": dp.value,
                        "phi_star_extensive_form": dp.extensive_form,
                        "extensive_mismatch": dp.mismatch,
                        "dual_coordinates": coords.tolist(),
                        "invariance_residual": inv_res})
    out = {"model": model.name, "version": __version__}
    if not args.no_timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    out["slice"] = {"constraints": sl.constraints.tolist(),
                    "constants": sl.constants.tolist()}
    out["points"] = entries
    print(json.dumps(out, indent=2))
    return EXIT_OK


# -- report ------------------------------------------------------------

def cmd_report(args) -> int:
    model = _resolve_model(args.model)
    lattice = [np.array(p) for p in product((0.5, 1.0, 2.0), repeat=model.dim)]
    points = [p for p in lattice if model.domain_check(p)]
    if not points:
        raise _CliError("no lattice point lies in the model domain",
                        EXIT_DOMAIN_ERROR)
    report, code = _run_check(model, points, args.tol_rank, args.tol_check,
                              with_timestamp=False)
    by_check = {}
    for entry in report["checks"]:
        stats = by_check.setdefault(entry["check"],
                                    {"pass": 0, "fail": 0, "worst": 0.0})
        stats[entry["verdict"]] += 1
        stats["worst"] = max(stats["worst"], entry["residual"])
    print(f"model: {model.name}   points: {len(points)} "
          f"(lattice over {{0.5, 1, 2}}^{model.dim}, domain-filtered)")
    print(f"{'check':<14} {'pass':>6} {'fail':>6} {'worst residual':>18}")
    for name in ("psd", "kernel", "gibbs_duhem", "codazzi", "euler_defect"):
        stats = by_check[name]
        print(f"{name:<14} {stats['pass']:>6} {stats['fail']:>6} "
              f"{stats['worst']:>18.3e}")
    return code


# -- entry point -------------------------------------------------------

@lru_cache(maxsize=None)  # built on first use; parsing leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hessiometric",
        description="Degenerate Hessian metric diagnostics and slice "
                    "curvature for potential models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="model JSON file or builtin name "
                       f"({', '.join(models.BUILTIN_NAMES)})")
        p.add_argument("--tol-rank", type=float, default=1e-9,
                       help="relative spectral tolerance for kernel/PSD")
        p.add_argument("--tol-check", type=float, default=1e-8,
                       help="residual tolerance for pass/fail verdicts")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp header field")

    p_check = sub.add_parser("check", help="run pointwise invariant checks")
    common(p_check)
    p_check.add_argument("--point", action="append",
                         help="comma-separated coordinates (repeatable)")
    p_check.add_argument("--points", help="CSV file, one point per row")
    p_check.set_defaults(func=cmd_check)

    p_curv = sub.add_parser("curvature", help="scan scalar curvature over a "
                            "grid on a slice")
    common(p_curv)
    p_curv.add_argument("--slice", required=True,
                        help="constraint rows 'b1,..,bn=c' joined by ';'")
    p_curv.add_argument("--grid", required=True,
                        help="per-axis 'min:max:count' joined by ','")
    p_curv.add_argument("--out", default="-", help="CSV output path")
    p_curv.set_defaults(func=cmd_curvature)

    p_leg = sub.add_parser("legendre", help="dual potential and invariance "
                           "residuals on a slice")
    common(p_leg)
    p_leg.add_argument("--slice", required=True,
                       help="constraint rows 'b1,..,bn=c' joined by ';'")
    p_leg.add_argument("--point", action="append",
                       help="slice coordinates (repeatable)")
    p_leg.set_defaults(func=cmd_legendre)

    p_rep = sub.add_parser("report", help="aggregate checks over a default "
                           "domain lattice")
    common(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the errors below report what numpy warns of
            return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except HessiometricError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL_ERROR


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
