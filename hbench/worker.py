"""One pass of a workload in a fresh interpreter.

Usage: ``python3 worker.py TAG [--trace]`` from the directory holding
``plan.json``, with ``hessiometric`` importable.  Imports
``hessiometric.cli``, builds
the plan's models and slices (the end of set-up), then makes the plan's
calls one after another, timing each.  Writes ``result_TAG.json`` (and
``trace_TAG.json`` when tracing); CLI output goes to ``out_TAG_<i>.txt``.
"""

import contextlib
import io
import json
import pathlib
import sys
import time
import traceback


def _run_cli(cli, argv, out_path):
    err = io.StringIO()
    code, tb = None, None
    with open(out_path, "w", encoding="utf-8", newline="") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
            except Exception:
                tb = traceback.format_exc()
            out.flush()
            seconds = time.perf_counter() - start
    return {"exit": code, "seconds": seconds, "stderr": err.getvalue(),
            "traceback": tb}


def _peak_rss_kb():
    """This process's own peak resident set (VmHWM).  ``getrusage``'s
    ru_maxrss would also count the parent's resident set at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_point(geometry, submanifold, model, sl, x, z):
    mf = geometry.hessian_metric(model, x)
    kb = geometry.kernel(mf)
    defect = geometry.euler_defect(model, x)
    pb = submanifold.pullback_metric(model, sl, z)
    scalar = submanifold.curvature(pb).scalar
    return mf, kb, defect, pb, scalar


def main(tag, trace):
    with open("plan.json", encoding="utf-8") as fh:
        plan = json.load(fh)
    import numpy as np
    from hessiometric import cli, geometry, models, submanifold
    tracer = None
    if trace:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
        from hbench.tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    built = {name: models.builtin(name) for name in plan["models"]}
    slices = {key: submanifold.make_slice(np.array([B], dtype=float),
                                          np.array([c], dtype=float))
              for key, (B, c) in plan["slices"].items()}
    setup_done = time.perf_counter()

    result = {"setup_done": setup_done, "calls": [], "points": []}
    for i, call in enumerate(plan["calls"]):
        if tracer:
            tracer.invocation = f"c{i}"
        out = f"out_{tag}_{i}.txt"
        record = _run_cli(cli, call["argv"], out)
        record["out"] = out
        result["calls"].append(record)
    for k, it in enumerate(plan["iterations"]):
        if tracer:
            tracer.invocation = f"p{k}"
        model, sl = built[it["model"]], slices[it["model"]]
        x, z = np.array(it["x"]), np.array(it["z"])
        start = time.perf_counter()
        try:
            mf, kb, defect, pb, scalar = _run_point(geometry, submanifold,
                                                    model, sl, x, z)
        except Exception:
            result["points"].append({"seconds": time.perf_counter() - start,
                                     "traceback": traceback.format_exc()})
            continue
        seconds = time.perf_counter() - start
        result["points"].append({
            "seconds": seconds, "g": mf.g.tolist(), "rank": kb.rank,
            "basis": kb.basis.tolist(), "defect": defect,
            "gbar": pb.gbar.tolist(), "scalar": scalar})
    result["rss_kb"] = _peak_rss_kb()
    if tracer:
        tracer.dump(f"trace_{tag}.json")
    with open(f"result_{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], "--trace" in sys.argv[2:])
