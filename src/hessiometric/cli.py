"""Batch front-end: invariant checks, curvature scans, Legendre reports.

Exit codes: 0 all checks pass, 1 check failure, 2 model/usage errors,
3 domain violation.  Every subcommand evaluates its points in blocks of
1024, one batched jet per block.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, geometry, models, submanifold
from .errors import DomainError, HessiometricError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MODEL_ERROR = HessiometricError.exit_code
EXIT_DOMAIN_ERROR = DomainError.exit_code
_BLOCK = 1024  # points per batched evaluation: bounds a large call's memory
CHECK_TOL = 1e-8  # bound of the Gibbs-Duhem, Codazzi and Euler-spread residuals
MAX_GRID_POINTS = 10**6  # points of one curvature grid, checked before any axis is built


def _resolve_model(arg: str) -> models.PotentialModel:
    path = Path(arg)
    if path.is_file():
        try:
            return models.load_model(path.read_text(encoding="utf-8"))
        except (HessiometricError, UnicodeDecodeError) as e:
            raise HessiometricError(f"cannot load model {arg}: {e}")
    if arg in models.BUILTIN_NAMES:
        return models.builtin(arg)
    raise HessiometricError(f"no such model file or builtin: {arg}")


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise HessiometricError(f"malformed point {text!r}")


def _collect_points(args, dim) -> list:
    points = [_parse_vector(p) for p in args.point or []]
    if args.points:
        try:
            with open(args.points, newline="", encoding="utf-8") as fh:
                for row in csv.reader(fh):
                    if row:
                        points.append(np.array([float(v) for v in row]))
        except (OSError, ValueError) as e:
            raise HessiometricError(f"cannot read points file: {e}")
    return _require_points(points, dim, "--point or --points", "model")


def _require_points(points, dim, options, space):
    """``points``, each of ``dim`` components, checked before any evaluation."""
    if not points:
        raise HessiometricError(f"no points given (use {options})")
    for p in points:
        if p.shape[0] != dim:
            raise HessiometricError(f"point {p.tolist()} has {p.shape[0]} components, "
                                     f"{space} dimension is {dim}")
    return points


def _parse_slice(text: str, dim: int) -> submanifold.SliceSpec:
    rows, consts = [], []
    for row_text in text.split(";"):
        if "=" not in row_text:
            raise HessiometricError(f"slice row {row_text!r} lacks '=c'")
        coeffs, _, const = row_text.partition("=")
        rows.append(_parse_vector(coeffs))
        try:
            consts.append(float(const))
        except ValueError:
            raise HessiometricError(f"malformed slice constant {const!r}")
    for row in rows:  # before stacking: rows of unequal length do not stack
        if len(row) != dim:
            raise HessiometricError(f"slice rows have {len(row)} entries, model "
                                     f"dimension is {dim}")
    try:
        return submanifold.make_slice(np.vstack(rows), np.array(consts))
    except DomainError as e:  # a non-finite constraint is a usage error
        raise HessiometricError(str(e))


def _blocks(fn, points):
    """Per-point results of ``fn``, which maps a batch (P, dim) to a list, from one
    call per block of _BLOCK points.  A block that raises reruns its points as
    batches of one: the first failing point in input order decides."""
    results = []
    for start in range(0, len(points), _BLOCK):
        block = np.array(points[start:start + _BLOCK])
        try:
            results += fn(block)
        except HessiometricError:
            for i in range(len(block)):
                results += fn(block[i:i + 1])
    return results


def _cartesian(axes) -> np.ndarray:
    """Points (P, k) of the Cartesian product of ``axes``, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# -- check -------------------------------------------------------------

def _point_checks(model, points):
    """Entries per point of a batch (P, n), from one metric jet and one call of
    each diagnostic."""
    mf = geometry.hessian_metric(model, points)
    kernels = geometry.kernel(mf)  # the one spectrum of g: kernel and PSD verdicts
    columns = [np.asarray(c).tolist() for c in (
        mf.point, *geometry.psd_check(kernels), geometry.gibbs_duhem_residual(mf),
        geometry.codazzi_residual(mf), mf.euler_defect)]
    return [_entries(*row) for row in zip(kernels, *columns)]


def _entries(kb, point, verdict_psd, lam_min, gd, cd, defect):
    kernel_dim = len(point) - kb.rank
    checks = [
        ("psd", {"verdict": verdict_psd, "lambda_min": lam_min},
         max(0.0, -lam_min), geometry.NULL_REL, verdict_psd == "psd"),
        ("kernel", {"rank": kb.rank, "kernel_dim": kernel_dim,
                    "eigenvalues": kb.eigenvalues.tolist()},
         float(kernel_dim == 0), geometry.NULL_REL, kernel_dim >= 1),
        ("gibbs_duhem", {"residual": gd}, gd, CHECK_TOL, gd <= CHECK_TOL),
        ("codazzi", {"residual": cd}, cd, CHECK_TOL, cd <= CHECK_TOL),
        # the spread verdict is filled in across points
        ("euler_defect", {"defect": defect}, 0.0, CHECK_TOL, True)]
    return [{"check": check, "point": point, "value": value, "residual": residual,
             "tolerance": tolerance, "verdict": "pass" if ok else "fail"}
            for check, value, residual, tolerance, ok in checks]


def _apply_euler_spread(entries):
    defects = [e["value"]["defect"] for e in entries
               if e["check"] == "euler_defect"]
    if len(defects) < 2:
        return
    spread = max(defects) - min(defects)
    scale = 1.0 + max(abs(d) for d in defects)
    ok = spread <= CHECK_TOL * scale
    for e in entries:
        if e["check"] == "euler_defect":
            e["value"]["spread"] = spread
            e["residual"] = spread / scale
            e["verdict"] = "pass" if ok else "fail"


def _run_check(model, points):
    checks = [entry for entries in _blocks(lambda p: _point_checks(model, p), points)
              for entry in entries]
    _apply_euler_spread(checks)
    code = EXIT_OK if all(c["verdict"] == "pass" for c in checks) \
        else EXIT_CHECK_FAILED
    return checks, code


def _print_document(model, args, **body):
    """JSON document of ``check`` and ``legendre``: the header
    {model, version, timestamp unless --no-timestamp}, then ``body``."""
    doc = {"model": model.name, "version": __version__}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps({**doc, **body}, indent=2))


def cmd_check(args) -> int:
    model = _resolve_model(args.model)
    points = _collect_points(args, model.dim)
    checks, code = _run_check(model, points)
    _print_document(model, args, checks=checks)
    return code


# -- curvature ---------------------------------------------------------

def _parse_grid(text: str, r: int):
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise HessiometricError(f"malformed grid axis {part!r} "
                                     "(expected min:max:count)")
        try:
            lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise HessiometricError(f"malformed grid axis {part!r}")
        if count < 1:
            raise HessiometricError("grid count must be >= 1")
        if not math.isfinite(hi - lo):  # also a non-finite bound
            raise HessiometricError(f"grid axis {part!r} has a non-finite bound or span")
        axes.append((lo, hi, count))
    if len(axes) != r:
        raise HessiometricError(f"grid has {len(axes)} axes, slice dimension is {r}")
    size = math.prod(count for _, _, count in axes)
    if size > MAX_GRID_POINTS:
        raise HessiometricError(f"grid has {size} points, more than {MAX_GRID_POINTS}")
    return _cartesian([np.linspace(*axis) for axis in axes])


def _curvature_rows(model, sl, zs):
    """CSV lines of the slice points ``zs`` (P, r) from one batch, each one %-format:
    DOMAIN and KERNEL by the domain and singular masks, else OK; in-domain
    failures raise."""
    coords = ",".join(["%.17g"] * zs.shape[1])
    rows = [[coords + ",,,,DOMAIN", tuple(z)] for z in zs.tolist()]
    xs = sl.embed(zs)
    inside = np.flatnonzero(model.domain_check(xs))
    if inside.size:
        report = submanifold.curvature(
            submanifold._pullback(model, sl, zs[inside], xs[inside]))
        conn = report.connection
        ok = zip(report.scalar.tolist(), conn.eigenvalues[:, 0].tolist(),
                 report.dual_flatness.tolist())
        for i, singular, values in zip(inside.tolist(), conn.singular.tolist(), ok):
            rows[i][0] = coords + (",,,,KERNEL" if singular else ",%.17g,%.17g,%.17g,OK")
            rows[i][1] += () if singular else values
    return [fmt % values for fmt, values in rows]


def cmd_curvature(args) -> int:
    model = _resolve_model(args.model)
    sl = _parse_slice(args.slice, model.dim)
    zs = _parse_grid(args.grid, sl.slice_dim)
    lines = [",".join([f"z{i+1}" for i in range(sl.slice_dim)] + [
        "scalar_curvature", "lambda_min", "dual_flatness_residual", "status"])]
    lines += _blocks(lambda z: _curvature_rows(model, sl, z), zs)
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as e:
            raise HessiometricError(f"cannot write {args.out}: {e}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- legendre ----------------------------------------------------------

def _legendre_entries(model, sl, zs):
    """JSON entries of slice points (P, r) from one order-2 pullback jet: its
    gradient is the dual coordinates."""
    pb = submanifold.pullback_metric(model, sl, zs, order=2)
    dp = submanifold.dual_potential(pb)
    columns = {"z": pb.z, "phi_star": dp.value, "phi_star_extensive_form": dp.extensive_form,
               "extensive_mismatch": dp.mismatch, "dual_coordinates": pb.gradient,
               "invariance_residual": submanifold.legendre_invariance_residual(pb)}
    columns = {key: np.asarray(a).tolist() for key, a in columns.items()}
    return [dict(zip(columns, r)) for r in zip(*columns.values())]


def cmd_legendre(args) -> int:
    model = _resolve_model(args.model)
    sl = _parse_slice(args.slice, model.dim)
    points = _require_points([_parse_vector(p) for p in args.point or []],
                             sl.slice_dim, "--point", "slice")
    entries = _blocks(lambda z: _legendre_entries(model, sl, z), points)
    _print_document(model, args, slice={"constraints": sl.constraints.tolist(),
                                         "constants": sl.constants.tolist()},
                    points=entries)
    return EXIT_OK


# -- report ------------------------------------------------------------

def cmd_report(args) -> int:
    model = _resolve_model(args.model)
    lattice = _cartesian([(0.5, 1.0, 2.0)] * model.dim)
    points = lattice[model.domain_check(lattice)]
    if not len(points):
        raise DomainError("no lattice point lies in the model domain")
    checks, code = _run_check(model, points)
    by_check = {}
    for entry in checks:
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

    def subcommand(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("model", help="model JSON file or builtin name "
                       f"({', '.join(models.BUILTIN_NAMES)})")
        if name != "report":  # curvature accepts it unread: the benchmark's scan passes it
            p.add_argument("--no-timestamp", action="store_true",
                           help="omit the timestamp header field")
        p.set_defaults(func=func)
        return p

    p_check = subcommand("check", cmd_check, "run pointwise invariant checks")
    p_check.add_argument("--point", action="append",
                         help="comma-separated coordinates (repeatable)")
    p_check.add_argument("--points", help="CSV file, one point per row")

    p_curv = subcommand("curvature", cmd_curvature, "scan scalar curvature over a "
                        "grid on a slice")
    p_curv.add_argument("--slice", required=True,
                        help="constraint rows 'b1,..,bn=c' joined by ';'")
    p_curv.add_argument("--grid", required=True,
                        help="per-axis 'min:max:count' joined by ','")
    p_curv.add_argument("--out", default="-", help="CSV output path")

    p_leg = subcommand("legendre", cmd_legendre, "dual potential and invariance "
                       "residuals on a slice")
    p_leg.add_argument("--slice", required=True,
                       help="constraint rows 'b1,..,bn=c' joined by ';'")
    p_leg.add_argument("--point", action="append",
                       help="slice coordinates (repeatable)")

    subcommand("report", cmd_report, "aggregate checks over a default domain lattice")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # the errors below report what numpy warns of
            return args.func(args)
    except HessiometricError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
