"""The README library tour, one point at a time, pinned byte for byte.

For each builtin: the metric, its derivatives, the kernel and the Euler
defect at 25 seeded points and at its in-domain ``EDGE_POINTS``; the
induced metric, scalar curvature and dual flatness at seeded points of an
axis-aligned and an oblique slice.  Floats are written with 17 significant
digits, so the file records every bit, the LAPACK results' as the
OpenBLAS kernel ``Haswell`` rounds them (``conftest.py`` pins it).
Regenerate it (only when a change of arithmetic order is meant, see
ROADMAP.md) with

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_pointwise_tour.py
"""

import json
from pathlib import Path

import numpy as np

from helpers import EDGE_POINTS, SAMPLE_BOXES, project, sample_points
from hessiometric import BUILTIN_NAMES, builtin
from hessiometric.errors import HessiometricError
from hessiometric.geometry import euler_defect, hessian_metric, kernel
from hessiometric.submanifold import curvature, make_slice, pullback_metric

GOLDEN_TOUR = Path(__file__).parent / "golden" / "pointwise_tour.json"
SLICE_ROWS = {"axis_aligned": [0.0, 0.0, 1.0], "oblique": [0.5, 0.25, 1.0]}
SLICE_POINTS = 10


def _text(value) -> str:
    """JSON text with every float at 17 significant digits."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, (bool, int, str)):
        return json.dumps(value)
    return "%.17g" % value


def _attempt(record, fn):
    """``record`` updated by ``fn()``, or with the class name of the error it raises."""
    try:
        record.update(fn())
    except HessiometricError as e:
        record["error"] = type(e).__name__
    return record


def _ambient(model, point):
    mf = hessian_metric(model, point)
    kb = kernel(mf)
    return {"g": mf.g.tolist(), "dg": mf.dg.tolist(), "rank": kb.rank,
            "basis": kb.basis.tolist(), "eigenvalues": kb.eigenvalues.tolist(),
            "euler_defect": euler_defect(model, point)}


def _on_slice(model, sl, z):
    report = curvature(pullback_metric(model, sl, z))
    return {"gbar": report.pullback.gbar.tolist(), "scalar": report.scalar,
            "dual_flatness": report.dual_flatness}


def tour_records(name):
    """One record per tour point of the builtin ``name``."""
    model = builtin(name)
    rng = np.random.default_rng([13, BUILTIN_NAMES.index(name)])
    points = [p for p in sample_points(name, 25, rng).tolist() + EDGE_POINTS[name]
              if model.domain_check(p)]
    records = [_attempt({"model": name, "x": p}, lambda: _ambient(model, p)) for p in points]
    x0 = np.array([np.mean(box) for box in SAMPLE_BOXES[name]])
    for kind, row in SLICE_ROWS.items():
        sl = make_slice([row], [float(np.dot(row, x0))])
        zs = [z for z in (project(sl, x) for x in sample_points(name, 4 * SLICE_POINTS, rng))
              if model.domain_check(sl.embed(z))][:SLICE_POINTS]
        records += [_attempt({"model": name, "slice": kind, "z": z.tolist()},
                             lambda: _on_slice(model, sl, z)) for z in zs]
    return records


def tour_text() -> str:
    return "[\n" + ",\n".join(_text(r) for name in BUILTIN_NAMES
                              for r in tour_records(name)) + "\n]\n"


def test_pointwise_tour_keeps_its_bytes():
    assert tour_text() == GOLDEN_TOUR.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_TOUR.write_text(tour_text(), encoding="utf-8")
