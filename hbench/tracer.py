"""Spans and counters installed on ``hessiometric`` from outside.

:func:`install` rebinds the package's public functions, the ``Jet``
methods on the class and the ``numpy.linalg`` / ``scipy.linalg``
factorisations to timing or counting wrappers.  Every binding the package
calls through is rebound (``submanifold.hessian_metric`` as well as
``geometry.hessian_metric``), or calls would escape the trace.

A span is (name, start_ns, end_ns, parent, invocation, self_ns, nested):
``parent`` is the index of the enclosing span or -1, ``self_ns`` is the
span minus its direct children, and ``nested`` marks a span inside
another of the same name.  Spans and counts stay in memory until
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)   # (invocation, name) -> calls
        self.invocation = "setup"
        self._stack = []                 # [span index, child_ns, name]
        self._eval_depth = 0

    def timed(self, name, fn):
        """Wrap ``fn`` in a span called ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        return wrapper

    def counted(self, name, fn, when=None):
        """Count calls of ``fn`` (those for which ``when(*args)`` holds)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when(*args):
                counts[(self.invocation, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def outermost_eval(self, fn):
        """Span for the outermost ``expr.eval_on`` call only, named by
        the order of the jet it returns."""
        @functools.wraps(fn)
        def wrapper(ast, env):
            if self._eval_depth:
                return fn(ast, env)
            index = len(self.spans)
            self._eval_depth += 1
            try:
                result = self._run("expr.eval", fn, (ast, env), {})
            finally:
                self._eval_depth -= 1
            self.spans[index][0] = f"expr.eval_o{result.order}"
            return result
        return wrapper

    def _run(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        nested = any(f[2] == name for f in self._stack)
        self.spans.append(None)
        frame = [index, 0, name]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[index] = [name, start, end, parent, self.invocation,
                                 end - start - frame[1], nested]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[inv, name, n] for (inv, name), n
                                  in sorted(self.counts.items())]}, fh)


TENSORS = ("gradient", "hessian", "third_tensor", "fourth_tensor")
DIAGNOSTICS = ("kernel", "psd_check", "gibbs_duhem_residual",
               "codazzi_residual", "euler_defect")
LEGENDRE = ("dual_potential", "dual_coordinates",
            "legendre_invariance_residual")
FACTORISATIONS = ("eigh", "eigvalsh", "inv", "cond", "qr")


def install(tracer: Tracer) -> None:
    """Rebind every binding the package calls through."""
    import numpy.linalg
    import scipy.linalg
    from hessiometric import cli, expr, geometry, models, submanifold
    from hessiometric.jets import Jet

    expr.eval_on = tracer.outermost_eval(expr.eval_on)

    Jet.__init__ = tracer.counted("jets.jet_init", Jet.__init__)
    Jet.__mul__ = tracer.counted("jets.mul", Jet.__mul__,
                                 when=lambda a, b: isinstance(b, Jet))
    Jet.compose = tracer.counted("jets.compose", Jet.compose)
    for name in TENSORS:
        setattr(Jet, name, tracer.timed("jets.tensors", getattr(Jet, name)))

    models.PotentialModel.domain_check = tracer.timed(
        "models.domain_check", models.PotentialModel.domain_check)

    hm = tracer.timed("geometry.hessian_metric", geometry.hessian_metric)
    geometry.hessian_metric = hm
    submanifold.hessian_metric = hm
    for name in DIAGNOSTICS:
        setattr(geometry, name,
                tracer.timed("geometry.diagnostics", getattr(geometry, name)))

    groups = {"make_slice": "submanifold.make_slice",
              "pullback_metric": "submanifold.pullback_metric",
              "levi_civita": "submanifold.connection",
              "christoffel_derivatives": "submanifold.connection",
              "curvature": "submanifold.curvature",
              "dual_flatness_residual": "submanifold.dual_flatness"}
    groups.update({name: "submanifold.legendre" for name in LEGENDRE})
    for name, span in groups.items():
        setattr(submanifold, name,
                tracer.timed(span, getattr(submanifold, name)))

    for name in FACTORISATIONS:
        setattr(numpy.linalg, name,
                tracer.timed("linalg", getattr(numpy.linalg, name)))
    scipy.linalg.qr = tracer.timed("linalg", scipy.linalg.qr)

    cli.main = tracer.timed("cli", cli.main)
