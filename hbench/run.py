"""Benchmark of hessiometric: one workload, one seed, one run.

    python3 hbench/run.py --workload scan --seed 1 --seconds 50 --trace 0

Run from the root of a source tree (``src/hessiometric`` must exist).
Each pass of the workload runs in a fresh interpreter (``worker.py``),
one after another: a closed loop with one client.  Passes repeat until
``--seconds`` have gone by (at least five).  Every output is checked
against the benchmark's own oracle (``check.py``), outside the timed
regions.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced passes (``tracer.py``), an
``-X importtime`` breakdown and the tracing overhead.  The last line of
stdout is one JSON object; scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from hbench import check, workloads  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 5
PASS_TIMEOUT = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env():
    """The default path users get (no HESSIOMETRIC_THREADS), one BLAS or
    OpenMP thread, the source tree on the path."""
    env = {k: v for k, v in os.environ.items() if k != "HESSIOMETRIC_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workdir, tag, trace=False):
    """One fresh-interpreter pass; its result with wall and set-up time."""
    argv = [sys.executable, str(HERE / "worker.py"), tag] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=workdir, env=child_env(), timeout=PASS_TIMEOUT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    with open(workdir / f"result_{tag}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(tag=tag, wall_s=wall, setup_s=result["setup_done"] - start)
    return result


def compute_seconds(result):
    return sum(r["seconds"] for r in result["calls"] + result["points"])


def per_point_ms(plan, passes):
    """(passes, units) array of per-point latency in ms.  A unit is a
    pointwise iteration, or a CLI call whose latency is divided by its
    point count; every pass repeats the same units."""
    if plan["iterations"]:
        return np.array([[p["seconds"] for p in r["points"]] for r in passes]) * 1e3
    points = np.array([c["points"] for c in plan["calls"]])
    return np.array([[c["seconds"] for c in r["calls"]] for r in passes]) * 1e3 / points


def second_slowest(values, axis=None):
    return np.sort(values, axis=axis)[-2]


def end_to_end(plan, passes, failed, attempted):
    """Each timing is the second-slowest of its repeats in the run: of the
    passes for ``wall_s`` and ``points_per_s``, of each unit's repeats for
    the latencies.  On a shared machine most passes run under other
    tenants' load and some run up to 1.7x faster, so medians over passes
    moved 20-45% from run to run with the share of fast passes; the
    slowest repeat is steadier, and dropping the single slowest repeat
    drops a one-off stall.  The tail is the 99th percentile over 1000 or
    more units (pointwise), else the slowest unit (16 CLI calls)."""
    slow = second_slowest(per_point_ms(plan, passes), axis=0)
    tail = np.percentile(slow, 99) if slow.size >= 1000 else slow.max()
    compute = second_slowest([compute_seconds(p) for p in passes])
    return {
        "wall_s": (float(second_slowest([p["wall_s"] for p in passes])), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "points_per_s": (plan["points_per_pass"] / float(compute), "1/s"),
        "point_ms.p50": (float(np.median(slow)), "ms"),
        "point_ms.p99": (float(tail), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] / 1024 for p in passes), "MB"),
        "pass_share": (1 - failed / attempted, "ratio"),
    }


# -- traced run ----------------------------------------------------------

SPAN_METRICS = [  # (metric, span name, what: calls | ms | self_ms)
    ("expr.eval_o4.calls_per_point", "expr.eval_o4", "calls"),
    ("expr.eval_o4.ms_per_point", "expr.eval_o4", "ms"),
    ("expr.eval_o1.calls_per_point", "expr.eval_o1", "calls"),
    ("expr.eval_o1.ms_per_point", "expr.eval_o1", "ms"),
    ("jets.tensors.ms_per_point", "jets.tensors", "ms"),
    ("models.domain_check.calls_per_point", "models.domain_check", "calls"),
    ("models.domain_check.ms_per_point", "models.domain_check", "ms"),
    ("geometry.hessian_metric.calls_per_point", "geometry.hessian_metric", "calls"),
    ("geometry.hessian_metric.self_ms_per_point", "geometry.hessian_metric", "self_ms"),
    ("geometry.diagnostics.ms_per_point", "geometry.diagnostics", "ms"),
    ("submanifold.pullback_metric.calls_per_point", "submanifold.pullback_metric", "calls"),
    ("submanifold.pullback_metric.self_ms_per_point", "submanifold.pullback_metric",
     "self_ms"),
    ("submanifold.connection.ms_per_point", "submanifold.connection", "ms"),
    ("submanifold.curvature.ms_per_point", "submanifold.curvature", "ms"),
    ("submanifold.dual_flatness.self_ms_per_point", "submanifold.dual_flatness", "self_ms"),
    ("submanifold.legendre.self_ms_per_point", "submanifold.legendre", "self_ms"),
    ("linalg.factorisations_per_point", "linalg", "calls"),
    ("linalg.ms_per_point", "linalg", "ms"),
    ("cli.self_ms_per_point", "cli", "self_ms"),
]
COUNT_METRICS = [("jets.mul.calls_per_point", "jets.mul"),
                 ("jets.compose.calls_per_point", "jets.compose"),
                 ("jets.jet_init.calls_per_point", "jets.jet_init")]
UNITS = {"calls": "calls/point", "ms": "ms/point", "self_ms": "ms/point"}


def layer_metrics(plan, result, workdir):
    """Per-layer metrics of one traced pass, per output point.  Set-up
    spans count only towards ``submanifold.make_slice.ms``."""
    with open(workdir / f"trace_{result['tag']}.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    calls, incl, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    slice_ns = []
    for name, start, end, _parent, inv, own, nested in trace["spans"]:
        if name == "submanifold.make_slice":
            slice_ns.append(end - start)
        if inv == "setup":
            continue
        calls[name] += 1
        self_ns[name] += own
        if not nested:
            incl[name] += end - start
    counts = defaultdict(int)
    for inv, name, n in trace["counts"]:
        if inv != "setup":
            counts[name] += n
    per = plan["points_per_pass"]
    out = {}
    for metric, span, what in SPAN_METRICS:
        value = {"calls": calls[span], "ms": incl[span] / 1e6,
                 "self_ms": self_ns[span] / 1e6}[what]
        out[metric] = (value / per, UNITS[what])
    for metric, name in COUNT_METRICS:
        out[metric] = (counts[name] / per, "calls/point")
    # the check workload builds no slice
    out["submanifold.make_slice.ms"] = (statistics.mean(slice_ns) / 1e6 if slice_ns else 0.0,
                                        "ms")
    out["cli.output_bytes"] = (sum((workdir / r["out"]).stat().st_size
                                   for r in result["calls"]) / per, "bytes/point")
    return out


def import_breakdown(runs=3):
    """``python -X importtime -c 'import hessiometric.cli'``: self time
    summed per top-level package, median over ``runs``."""
    totals = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import hessiometric.cli"], env=child_env(),
                              timeout=PASS_TIMEOUT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr[-3000:]}")
        by_pkg = defaultdict(int)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or not parts[0].split()[-1].isdigit():
                continue
            us = int(parts[0].split()[-1])
            by_pkg[parts[2].strip().split(".")[0]] += us
            by_pkg["total"] += us
        for key in ("total", "scipy", "numpy", "hessiometric"):
            totals[key].append(by_pkg[key] / 1e3)
    return {f"import.{key}_ms": (statistics.median(v), "ms") for key, v in totals.items()}


# -- the run -------------------------------------------------------------

def environment(seed):
    import scipy
    tree = hashlib.sha256()
    for path in sorted((SRC / "hessiometric").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": tree.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "seed": seed,
            "threads": {var: "1" for var in THREAD_VARS}}


def warm_up():
    """Import once so that the bytecode caches are written; not measured."""
    proc = subprocess.run([sys.executable, "-c", "import hessiometric.cli"], env=child_env(),
                          timeout=PASS_TIMEOUT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cannot import hessiometric: {proc.stderr[-3000:]}")


def measure(args, workdir):
    warm_up()
    deadline = time.perf_counter() + args.seconds
    untraced, traced = [], []
    while len(untraced) < (1 if args.trace else MIN_PASSES) or time.perf_counter() < deadline:
        untraced.append(run_pass(workdir, f"u{len(untraced)}"))
        if args.trace:
            traced.append(run_pass(workdir, f"t{len(traced)}", trace=True))
    return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hessiometric" / "cli.py").is_file():
        raise BenchError(f"no hessiometric sources under {SRC}")

    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.generate(args.workload, args.seed, workdir)
    untraced, traced = measure(args, workdir)

    orc = check.References()
    failed, attempted, messages = 0, 0, []
    for result in untraced + traced:
        f, m = check.check_pass(orc, plan, result, workdir)
        failed += f
        attempted += plan["points_per_pass"]
        messages += m
    if args.trace:
        layers = [layer_metrics(plan, r, workdir) for r in traced]
        metrics = {k: (statistics.median(l[k][0] for l in layers), layers[0][k][1])
                   for k in layers[0]}
        metrics.update(import_breakdown())
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in untraced) - 1)
        metrics["trace.overhead_share"] = (overhead, "ratio")
    else:
        metrics = end_to_end(plan, untraced, failed, attempted)

    record = {"environment": environment(args.seed), "workload": args.workload,
              "inputs": plan["properties"],
              "passes": [{k: r[k] for k in ("tag", "wall_s", "setup_s", "rss_kb")}
                         for r in untraced + traced],
              "fail_share": failed / attempted,
              "failures": list(dict.fromkeys(messages))[:50],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("inputs " + json.dumps(plan["properties"], sort_keys=True))
    for message in record["failures"][:20]:
        print("FAILED " + message)
    print(f"{'fail_share':<46} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} points)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
