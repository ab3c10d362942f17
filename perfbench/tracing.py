"""Per-layer spans for the traced run.

`install` wraps the package's public functions where their callers look
them up (several modules import a function by name, so the wrapper has
to replace that name too).  A span records its self time: its duration
minus the durations of the wrapped calls made inside it, so the self
times of all layers add up to the time spent in the entry points.
Counts are taken from the arguments before the call and from the result
after it; the time that takes is charged to no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._inner: list[float] = []  # per open span: time of its closed inner spans

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def _uncharged(self, hook, *args):
        start = time.perf_counter()
        hook(self, *args)
        if self._inner:
            self._inner[-1] += time.perf_counter() - start

    def _close(self, layer: str, start: float):
        elapsed = time.perf_counter() - start
        self.self_s[layer] += elapsed - self._inner.pop()
        if self._inner:
            self._inner[-1] += elapsed

    def wrap(self, layer: str, fn, before=None, after=None, on_error=None):
        """Wrap `fn` in a span of `layer`.  The hooks record counts:
        `before(tracer, args)`, `after(tracer, args, result)` and
        `on_error(tracer, exc)`."""

        def traced(*args, **kwargs):
            if before is not None:
                self._uncharged(before, args)
            self._inner.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(layer, start)
                if on_error is not None:
                    self._uncharged(on_error, exc)
                raise
            self._close(layer, start)
            if after is not None:
                self._uncharged(after, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _replace(tracer: Tracer, layer: str, owners, name: str, **hooks):
    """Replace `name` in every module of `owners` by one traced wrapper."""
    wrapper = tracer.wrap(layer, getattr(owners[0], name), **hooks)
    for module in owners:
        setattr(module, name, wrapper)


def _add(key: str, amount):
    def hook(t: Tracer, *args):
        t.counts[key] += amount(*args)
    return hook


def install(tracer: Tracer) -> None:
    from shacl2fol import (
        cli, clausify, decide, miniprover, oracle, rdf, sat, shapes, tptp,
        tptp_parse, translate,
    )

    def budget_cut(t, exc):
        if isinstance(exc, sat.TimeBudgetExceeded):
            t.counts["miniprover.budget_cuts"] += 1

    def sat_size(t, args):
        clauses = args[0]
        t.counts["sat.calls"] += 1
        t.counts["sat.ground_clauses"] += len(clauses)
        t.counts["sat.variables"] += len({abs(lit) for c in clauses for lit in c})

    _replace(tracer, "cli", [cli], "main")
    _replace(tracer, "cli", [miniprover], "main")
    _replace(tracer, "rdf.parse", [rdf, cli], "parse_file",
             after=_add("rdf.triples", lambda a, r: len(r)))
    _replace(tracer, "shapes.extract", [shapes], "extract_shape_graph")
    _replace(tracer, "shapes.recursion", [shapes, oracle], "detect_recursion")
    _replace(tracer, "translate.translate", [translate], "translate",
             after=_add("translate.sentences", lambda a, r: len(r)))
    _replace(tracer, "tptp.build", [decide], "build_problem",
             after=_add("tptp.units", lambda a, r: len(r.formulas)))
    _replace(tracer, "tptp.render", [tptp, decide], "render",
             after=_add("tptp.bytes", lambda a, r: len(r.encode("utf-8"))))
    _replace(tracer, "decide.write", [decide], "write_problem")
    _replace(tracer, "decide", [decide], "run_task")
    _replace(tracer, "decide", [decide], "run_prover")
    _replace(tracer, "miniprover.schedule", [miniprover], "decide_tptp_text")
    _replace(tracer, "miniprover.schedule", [miniprover], "decide_clauses")
    _replace(tracer, "tptp_parse.parse", [tptp_parse, miniprover], "parse_tptp",
             before=_add("tptp_parse.bytes", lambda a: len(a[0].encode("utf-8"))))
    _replace(tracer, "clausify.clausify", [clausify, miniprover], "clausify",
             after=_add("clausify.clauses", lambda a, r: len(r)))
    _replace(tracer, "miniprover.refute", [miniprover], "refute",
             before=_add("miniprover.refute_calls", lambda a: 1),
             after=_add("miniprover.refute_conclusive", lambda a, r: bool(r)),
             on_error=budget_cut)
    _replace(tracer, "miniprover.find_model", [miniprover], "find_model",
             before=_add("miniprover.find_model_calls", lambda a: 1),
             after=_add("miniprover.find_model_models", lambda a, r: r is not None),
             on_error=budget_cut)
    _replace(tracer, "sat.solve", [sat], "solve", before=sat_size)
    _replace(tracer, "oracle.evaluate", [oracle], "evaluate",
             after=_add("oracle.triples", lambda a, r: len(a[1])))
