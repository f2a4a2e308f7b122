"""Judge one pass's outputs against the oracle, point by point.

Each ``check_*`` returns the number of failed points of one call and a
list of messages.  A point fails when its call crashed, printed a
traceback or exited with an unexpected code (then every point of the call
fails), when its status disagrees with the oracle's domain test, when an
OK value disagrees with the oracle beyond tolerance, or when a verdict
differs from the model's known answer.

The scan's tolerances follow the error envelope measured at the seed
commit (15 seeds, 12.6k OK rows), with a margin of at least 30.  With
d = (u^2 - q u - j^2) / u^2 the relative distance to extremality, the
scalar curvature's relative error stayed below 3.4e-14 / d^2, lambda_min's
below 2e-14 / d and the dual-flatness residual below 6.8e-16 / d^2.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product

import numpy as np

from . import oracle

SCAN_HEADER = ["z1", "z2", "scalar_curvature", "lambda_min",
               "dual_flatness_residual", "status"]
REL = 1e-10          # closed-form values away from any singularity
INVARIANCE = 1e-7    # legendre_invariance_residual (5-point FD Jacobian)


def curvature_tol(d):
    return 1e-12 + 2e-12 / d ** 2


def lambda_tol(d):
    return 1e-12 + 1e-12 / d


def flatness_tol(d):
    return 1e-14 + 2e-14 / d ** 2


def call_failed(record, expect_exit) -> str | None:
    """Why every point of the call fails, or None."""
    if record["traceback"] or "Traceback" in record["stderr"]:
        return "traceback"
    if record["exit"] != expect_exit:
        return f"exit code {record['exit']}, expected {expect_exit}"
    return None


class References:
    """Reference values, cached per input so that repeated passes cost
    nothing more."""

    def __init__(self):
        self._curv = {}
        self._point = {}

    def kn_scalar(self, u, q, j):
        key = (u, q, j)
        if key not in self._curv:
            self._curv[key] = oracle.kn_jslice_scalar(u, q, j)
        return self._curv[key]

    def point(self, name, x):
        """Per-point check verdicts and values for ``check``/``report``."""
        key = (name, tuple(x))
        if key not in self._point:
            g = oracle.metric(name, x)
            lam = np.linalg.eigvalsh(g)
            lam_max = float(np.max(np.abs(lam)))
            xv = np.asarray(x, dtype=float)
            gd = float(np.linalg.norm(g @ xv)
                       / (np.linalg.norm(g) * np.linalg.norm(xv)))
            kernel_dim = int(np.sum(np.abs(lam) <= oracle.TOL_RANK * lam_max))
            self._point[key] = {
                "lam": lam, "lam_max": lam_max, "kernel_dim": kernel_dim,
                "gd": gd, "defect": oracle.euler_defect(name, x),
                "verdicts": {
                    "psd": lam[0] >= -oracle.TOL_RANK * lam_max,
                    "kernel": kernel_dim >= 1,
                    "gibbs_duhem": gd <= oracle.TOL_CHECK,
                    "codazzi": True}}
        return self._point[key]

    def euler_pass(self, name, points):
        defects = [self.point(name, p)["defect"] for p in points]
        if len(defects) < 2:
            return True
        spread = max(defects) - min(defects)
        return spread <= oracle.TOL_CHECK * (1.0 + max(abs(d) for d in defects))


def check_scan(orc, spec, text):
    (u_lo, u_hi, n_u), (q_lo, q_hi, n_q) = spec["grid"]
    j = spec["c"]
    expected = list(product(np.linspace(u_lo, u_hi, n_u), np.linspace(q_lo, q_hi, n_q)))
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SCAN_HEADER:
        return len(expected), ["bad CSV header"]
    rows = rows[1:]
    failed, msgs = max(0, len(expected) - len(rows)), []
    for (u, q), row in zip(expected, rows):
        why = _scan_row(orc, u, q, j, row)
        if why:
            failed += 1
            msgs.append(f"u={float(u)!r} q={float(q)!r} j={j!r}: {why}")
    return failed, msgs


def _scan_row(orc, u, q, j, row):
    if len(row) != 6 or float(row[0]) != u or float(row[1]) != q:
        return f"row {row} is not grid point"
    if not oracle.in_domain("kerr_newman_radiant", (u, q, j)):
        return None if row[2:] == ["", "", "", "DOMAIN"] else f"expected DOMAIN, got {row[2:]}"
    if row[5] != "OK":
        return f"expected OK, got {row[5]}"
    d = oracle.kn_extremality(u, q, j)
    scalar, lam, flat = (float(v) for v in row[2:5])
    exact = orc.kn_scalar(u, q, j)
    if not abs(scalar - exact) <= curvature_tol(d) * abs(exact):
        return f"scalar {scalar!r} vs exact {exact!r} (d={d:.3g})"
    lam_ref = float(np.linalg.eigvalsh(oracle.metric_kn_jslice((u, q), j))[0])
    if not abs(lam - lam_ref) <= lambda_tol(d) * abs(lam_ref):
        return f"lambda_min {lam!r} vs {lam_ref!r}"
    if not abs(flat) <= flatness_tol(d):
        return f"dual_flatness_residual {flat!r} (d={d:.3g})"
    return None


def check_check(orc, spec, text):
    name, points = spec["model"], spec["points"]
    try:
        report = json.loads(text)
        entries = report["checks"]
    except (ValueError, KeyError, TypeError):
        return len(points), ["output is not a check report"]
    if report.get("model") != name or len(entries) != 5 * len(points):
        return len(points), [f"report has {len(entries)} entries for {len(points)} points"]
    euler_ok = orc.euler_pass(name, points)
    failed, msgs = 0, []
    for k, p in enumerate(points):
        why = _check_point(orc.point(name, p), entries[5 * k: 5 * k + 5], p, euler_ok)
        if why:
            failed += 1
            msgs.append(f"{name} {p}: {why}")
    return failed, msgs


def _check_point(ref, entries, p, euler_ok):
    names = [e.get("check") for e in entries]
    if names != ["psd", "kernel", "gibbs_duhem", "codazzi", "euler_defect"]:
        return f"checks {names}"
    if any(e.get("point") != p for e in entries):
        return "entry for another point"
    psd, ker, gd, cod, eul = entries
    tol_abs = oracle.TOL_RANK * ref["lam_max"]
    verdicts = dict(ref["verdicts"], euler_defect=euler_ok)
    for e in entries:
        if (e["verdict"] == "pass") != verdicts[e["check"]]:
            return f"{e['check']} verdict {e['verdict']}"
    if not abs(psd["value"]["lambda_min"] - ref["lam"][0]) <= tol_abs:
        return f"lambda_min {psd['value']['lambda_min']!r} vs {ref['lam'][0]!r}"
    if ker["value"]["kernel_dim"] != ref["kernel_dim"] or \
            not oracle.close(ker["value"]["eigenvalues"], ref["lam"], 0, tol_abs):
        return f"kernel {ker['value']}"
    if not (gd["value"]["residual"] <= 1e-12 if ref["gd"] <= 1e-12
            else oracle.close(gd["value"]["residual"], ref["gd"], 1e-8)):
        return f"gibbs_duhem {gd['value']['residual']!r} vs {ref['gd']!r}"
    if not cod["value"]["residual"] <= 1e-12:
        return f"codazzi {cod['value']['residual']!r}"
    if not abs(eul["value"]["defect"] - ref["defect"]) <= 1e-9 * (1 + abs(ref["defect"])):
        return f"euler_defect {eul['value']['defect']!r} vs {ref['defect']!r}"
    return None


def check_report(orc, spec, text):
    name, points = spec["model"], spec["points"]
    lines = text.splitlines()
    counts = {}
    for line in lines[2:]:
        parts = line.split()
        if len(parts) == 4:
            counts[parts[0]] = (int(parts[1]), int(parts[2]), float(parts[3]))
    if not lines or not lines[0].startswith(f"model: {name}   points: {len(points)} "):
        return len(points), [f"report header {lines[:1]}"]
    euler_ok = orc.euler_pass(name, points)
    msgs = []
    for check in ("psd", "kernel", "gibbs_duhem", "codazzi", "euler_defect"):
        passes = sum(euler_ok if check == "euler_defect"
                     else orc.point(name, p)["verdicts"][check] for p in points)
        expect = (passes, len(points) - passes)
        got = counts.get(check)
        if got is None or got[:2] != expect:
            msgs.append(f"{name} {check}: {got} vs expected pass/fail {expect}")
        elif expect[1] == 0 and not got[2] <= oracle.TOL_CHECK:
            msgs.append(f"{name} {check}: worst residual {got[2]!r}")
    return (len(points) if msgs else 0), msgs


def check_legendre(orc, spec, text):
    name, points = spec["model"], spec["points"]
    try:
        entries = json.loads(text)["points"]
    except (ValueError, KeyError, TypeError):
        return len(points), ["output is not a legendre report"]
    if len(entries) != len(points):
        return len(points), [f"{len(entries)} entries for {len(points)} points"]
    failed, msgs = 0, []
    for z, e in zip(points, entries):
        why = _legendre_point(name, spec["B"], [spec["c"]], z, e)
        if why:
            failed += 1
            msgs.append(f"{name} z={z}: {why}")
    return failed, msgs


def _legendre_point(name, B, c, z, e):
    phi_star, extensive, dual = oracle.legendre_point(name, B, c, z)
    if e["z"] != z:
        return "entry for another point"
    if not oracle.close(e["phi_star"], phi_star, REL, REL):
        return f"phi_star {e['phi_star']!r} vs {phi_star!r}"
    if not oracle.close(e["phi_star_extensive_form"], extensive, REL, REL):
        return f"extensive form {e['phi_star_extensive_form']!r} vs {extensive!r}"
    if not oracle.close(e["dual_coordinates"], dual, REL, REL):
        return f"dual coordinates {e['dual_coordinates']} vs {dual.tolist()}"
    if e["extensive_mismatch"] != (not oracle.EXTENSIVE[name]):
        return f"extensive_mismatch {e['extensive_mismatch']}"
    if not e["invariance_residual"] <= INVARIANCE:
        return f"invariance_residual {e['invariance_residual']!r}"
    return None


def check_pointwise(orc, plan, records):
    """Check the library results of every pointwise iteration."""
    failed, msgs = max(0, len(plan["iterations"]) - len(records)), []
    for it, rec in zip(plan["iterations"], records):
        why = rec.get("traceback") or _pointwise_point(orc, plan, it, rec)
        if why:
            failed += 1
            msgs.append(f"{it}: {why}")
    return failed, msgs


def _pointwise_point(orc, plan, it, rec):
    name, x, z = it["model"], it["x"], it["z"]
    c = plan["slices"][name][1]
    if not oracle.close(rec["g"], oracle.metric(name, x), REL):
        return "metric"
    xhat = np.asarray(x) / np.linalg.norm(x)
    basis = np.asarray(rec["basis"])
    if rec["rank"] != 2 or basis.shape != (1, 3) or \
            not abs(float(basis[0] @ xhat)) >= 1 - 1e-9:
        return f"kernel rank {rec['rank']} basis {rec['basis']}"
    if not abs(rec["defect"] - oracle.euler_defect(name, x)) <= 1e-9:
        return f"euler_defect {rec['defect']!r}"
    if name == "ideal_gas":
        gbar, scalar = oracle.metric(name, [z[0], z[1], c])[:2, :2], 0.0
    else:
        gbar, scalar = oracle.metric_kn_jslice(z, c), orc.kn_scalar(z[0], z[1], c)
    if not oracle.close(rec["gbar"], gbar, REL):
        return "induced metric"
    if not abs(rec["scalar"] - scalar) <= 1e-9 * max(1.0, abs(scalar)):
        return f"scalar {rec['scalar']!r} vs {scalar!r}"
    return None


CHECKERS = {"scan": check_scan, "check": check_check, "report": check_report,
            "legendre": check_legendre}


def check_pass(orc, plan, result, workdir):
    """(failed points, messages) for one pass's result; CLI outputs are
    read from ``workdir``."""
    if plan["iterations"]:
        return check_pointwise(orc, plan, result["points"])
    failed, msgs = 0, []
    for call, rec in zip(plan["calls"], result["calls"]):
        why = call_failed(rec, call["expect_exit"])
        if why:
            failed += call["points"]
            msgs.append(f"{' '.join(call['argv'][:2])}: {why}")
            continue
        with open(workdir / rec["out"], encoding="utf-8") as fh:
            text = fh.read()
        f, m = CHECKERS[call["check"]["type"]](orc, call["check"], text)
        failed += f
        msgs += m
    return failed, msgs
