"""Seeded inputs for the four workloads.

:func:`generate` turns (workload, seed) into a plan: the CLI argument
lists or library calls of one pass, the files they read, the data the
checker needs, and the input properties the program's behaviour depends
on.  The same seed gives byte-identical plans and files.

Why each workload:

* ``scan`` -- ``curvature kerr_newman_radiant --slice 0,0,1=<j>`` grids
  that cross the extremal boundary u^2 - q u - j^2 = 0, so some rows end
  in DOMAIN and some OK rows lie close to extremality, where the
  curvature diverges.  Order-4 jets, tensor extraction, the connection
  and curvature algebra and dual flatness do almost all of the work.
* ``check`` -- ``check --points`` and ``report`` on every builtin:
  ambient diagnostics only (one order-4 and about seven order-1 jets per
  point, eigen-decompositions, JSON output), no slice algebra.
* ``legendre`` -- dual potentials on axis-aligned slices of three models
  and on one oblique slice that runs the pivoted-QR path of
  ``make_slice``; many order-1 jets per point, so a fixed cost per jet
  shows here.
* ``pointwise`` -- the README library tour, one point at a time from
  Python, which bypasses any batching in the CLI.
"""

from __future__ import annotations

import json
import math
from itertools import product
from pathlib import Path

import numpy as np

from . import oracle

WORKLOADS = ("scan", "check", "legendre", "pointwise")

SCAN_INVOCATIONS, SCAN_GRID, SCAN_DOMAIN_ROWS = 16, (8, 8), 10
CHECK_FILES, CHECK_POINTS = 4, 25
LEGENDRE_INVOCATIONS, LEGENDRE_POINTS = 4, 20
POINTWISE_ITERATIONS = 1000  # enough for a 99th percentile

# sampling boxes well inside each model's domain
BOXES = {
    "ideal_gas": [(0.5, 2.5), (0.5, 2.5), (0.5, 2.5)],
    "paramagnet": [(0.5, 2.5), (-0.5, 0.5), (0.5, 2.5)],
    "kerr_newman_radiant": [(1.0, 2.0), (0.05, 0.3), (0.05, 0.3)],
    "kerr_newman_naive": [(1.0, 2.0), (0.2, 0.5), (0.1, 0.3)],
}
EXPECTED_EXIT = {name: 0 if ext else 1 for name, ext in oracle.EXTENSIVE.items()}


def _r(v):
    return round(float(v), 6)


def _sample(rng, box, count):
    return [[_r(rng.uniform(lo, hi)) for lo, hi in box] for _ in range(count)]


def _fmt_point(p):
    return ",".join(repr(v) for v in p)


def _spec(B, c):
    return ",".join(repr(float(b)) for b in B) + "=" + repr(float(c))


def _extremal_u(q, j):
    return (q + math.sqrt(q * q + 4 * j * j)) / 2


def _grid_points(grid):
    (u_lo, u_hi, n_u), (q_lo, q_hi, n_q) = grid
    return list(product(np.linspace(u_lo, u_hi, n_u), np.linspace(q_lo, q_hi, n_q)))


def _scan_grid(rng, j):
    """A grid with exactly SCAN_DOMAIN_ROWS points beyond the extremal
    boundary, so that every call does the same amount of work."""
    while True:
        q_lo, q_hi = _r(rng.uniform(0.05, 0.1)), _r(rng.uniform(0.3, 0.35))
        u_lo = _r(_extremal_u(q_lo, j) * rng.uniform(1.0, 1.05))
        u_hi = _r(u_lo + (_extremal_u(q_hi, j) - u_lo) / rng.uniform(0.2, 0.4))
        grid = [[u_lo, u_hi, SCAN_GRID[0]], [q_lo, q_hi, SCAN_GRID[1]]]
        outside = sum(not oracle.in_domain("kerr_newman_radiant", (u, q, j))
                      for u, q in _grid_points(grid))
        if outside == SCAN_DOMAIN_ROWS:
            return grid


def _scan(rng, workdir):
    calls, distances = [], []
    for _ in range(SCAN_INVOCATIONS):
        j = _r(rng.uniform(0.1, 0.4))
        grid = _scan_grid(rng, j)
        distances += [oracle.kn_extremality(u, q, j) for u, q in _grid_points(grid)
                      if oracle.in_domain("kerr_newman_radiant", (u, q, j))]
        calls.append({
            "argv": ["curvature", "kerr_newman_radiant", "--slice",
                     _spec([0, 0, 1], j), "--grid",
                     ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in grid),
                     "--no-timestamp"],
            "points": SCAN_GRID[0] * SCAN_GRID[1], "expect_exit": 0,
            "check": {"type": "scan", "B": [0, 0, 1], "c": j, "grid": grid}})
    total = sum(c["points"] for c in calls)
    props = {"points": total, "domain_share": SCAN_DOMAIN_ROWS * SCAN_INVOCATIONS / total,
             "min_extremality": min(distances),
             "slices": [{"spec": c["argv"][3], "axis_aligned": True} for c in calls],
             "models": ["kerr_newman_radiant"], "expected_exit": {"curvature": 0}}
    return calls, props


def _check(rng, workdir):
    calls = []
    for name, box in BOXES.items():
        for k in range(CHECK_FILES):
            points = _sample(rng, box, CHECK_POINTS)
            path = f"points_{name}_{k}.csv"
            (workdir / path).write_text(
                "".join(_fmt_point(p) + "\n" for p in points), encoding="utf-8")
            calls.append({"argv": ["check", name, "--points", path,
                                   "--no-timestamp"],
                          "points": len(points),
                          "expect_exit": EXPECTED_EXIT[name],
                          "check": {"type": "check", "model": name,
                                    "points": points}})
    for name in BOXES:
        lattice = [p for p in product((0.5, 1.0, 2.0), repeat=3)
                   if oracle.in_domain(name, p)]
        calls.append({"argv": ["report", name], "points": len(lattice),
                      "expect_exit": EXPECTED_EXIT[name],
                      "check": {"type": "report", "model": name,
                                "points": [list(p) for p in lattice]}})
    total = sum(c["points"] for c in calls)
    props = {"points": total, "domain_share": 0.0, "slices": [],
             "models": list(BOXES),
             "expected_exit": {f"{kind} {name}": EXPECTED_EXIT[name]
                               for kind in ("check", "report") for name in BOXES}}
    return calls, props


def _legendre_slices(rng):
    """(model, B, c, z box) for each slice of the legendre workload."""
    n0, j0, jn = (_r(rng.uniform(0.5, 2.0)), _r(rng.uniform(0.1, 0.3)),
                  _r(rng.uniform(0.1, 0.3)))
    s = _r(rng.uniform(2.0, 4.0))
    return [
        ("ideal_gas", [0, 0, 1], n0, [(0.5, 2.5), (0.5, 2.5)]),
        ("kerr_newman_radiant", [0, 0, 1], j0, [(1.0, 2.0), (0.05, 0.3)]),
        ("kerr_newman_naive", [0, 0, 1], jn, [(1.0, 2.0), (0.2, 0.5)]),
        # oblique: U + V = s, chart z = ((V - U) / 2, N)
        ("ideal_gas", [1, 1, 0], s, [(-0.3 * s, 0.3 * s), (0.5, 2.5)]),
    ]


def _legendre(rng, workdir):
    calls, slices = [], []
    for model, B, c, box in _legendre_slices(rng):
        slices.append({"model": model, "spec": _spec(B, c),
                       "axis_aligned": sum(1 for b in B if b) == 1})
        for _ in range(LEGENDRE_INVOCATIONS):
            points = _sample(rng, box, LEGENDRE_POINTS)
            argv = ["legendre", model, "--slice", _spec(B, c), "--no-timestamp"]
            # "--point=" keeps a leading minus sign from reading as an option
            argv += [f"--point={_fmt_point(p)}" for p in points]
            calls.append({"argv": argv, "points": len(points), "expect_exit": 0,
                          "check": {"type": "legendre", "model": model,
                                    "B": B, "c": c, "points": points}})
    total = sum(c["points"] for c in calls)
    props = {"points": total, "domain_share": 0.0, "slices": slices,
             "models": sorted({s["model"] for s in slices}),
             "expected_exit": {"legendre": 0},
             "expected_mismatch": {m: not e for m, e in oracle.EXTENSIVE.items()
                                   if m in {s["model"] for s in slices}}}
    return calls, props


POINTWISE_SLICES = {"ideal_gas": ([0, 0, 1], [(0.5, 2.5), (0.5, 2.5)]),
                    "kerr_newman_radiant": ([0, 0, 1], [(1.0, 2.0), (0.05, 0.3)])}


def _pointwise(rng):
    constants = {"ideal_gas": _r(rng.uniform(0.5, 2.0)),
                 "kerr_newman_radiant": _r(rng.uniform(0.1, 0.3))}
    iterations = []
    for k in range(POINTWISE_ITERATIONS):
        model = ("ideal_gas", "kerr_newman_radiant")[k % 2]
        _, zbox = POINTWISE_SLICES[model]
        iterations.append({"model": model,
                           "x": _sample(rng, BOXES[model], 1)[0],
                           "z": _sample(rng, zbox, 1)[0]})
    slices = {m: [B, constants[m]] for m, (B, _) in POINTWISE_SLICES.items()}
    props = {"points": len(iterations), "domain_share": 0.0,
             "slices": [{"model": m, "spec": _spec(B, c), "axis_aligned": True}
                        for m, (B, c) in slices.items()],
             "models": list(slices), "expected_exit": {}}
    return iterations, slices, props


def generate(workload: str, seed: int, workdir) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``workdir``
    and return its plan (also written to ``workdir/plan.json``).  File
    names in the plan are relative to ``workdir``, where the worker runs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = {"workload": workload, "seed": seed, "calls": [], "iterations": []}
    if workload == "pointwise":
        plan["iterations"], plan["slices"], props = _pointwise(rng)
        plan["models"] = list(plan["slices"])
    else:
        plan["calls"], props = {"scan": _scan, "check": _check,
                                "legendre": _legendre}[workload](rng, workdir)
        plan["models"] = props["models"]
        # argv = [command, model, "--slice", spec, ...]
        plan["slices"] = {c["argv"][3]: [c["check"]["B"], c["check"]["c"]]
                          for c in plan["calls"] if "B" in c["check"]}
    plan["points_per_pass"] = props["points"]
    plan["properties"] = props
    (workdir / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return plan
