"""Spans around the public functions of each kplsvm module.

``Tracer.install()`` replaces every reference to a traced function in the
loaded ``kplsvm`` modules with a wrapper that records one span per call:
name, start, end, parent span and thread.  Nothing in ``src/`` changes;
the originals come back when the ``with`` block ends.  Spans stay in
memory until the run ends; ``layer_metrics`` folds them into the
per-layer figures.

Grid cells of ``staged_search`` run on pool threads.  A span opened on a
thread whose own stack is empty takes as parent the innermost open span
of the thread that installed the tracer, so the cells of a search are its
children whichever thread ran them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# The bounds the acceptance tests put on a trained model's own diagnostics;
# a model labelled optimal beyond them counts in trainer.kkt_gap_misses.
KKT_BOUND = 1e-6
GAP_BOUND = 1e-5

# (module, attribute, span name, note).  An attribute with a dot is a
# method.  ``note`` keeps the part of a call's result that the layer
# metrics count, so the spans do not hold models alive.
TARGETS = (
    ("kplsvm.loss", "canonical", "loss.canonical", None),
    ("kplsvm.kernels", "gram", "kernels.gram", None),
    ("kplsvm.kernels", "cross_gram", "kernels.cross_gram", None),
    ("kplsvm.qp", "assemble_dual", "qp.assemble_dual", None),
    ("kplsvm.qp", "solve", "qp.solve",
     lambda sol: (sol.iterations, sol.status)),
    ("kplsvm.trainer", "train", "trainer.train",
     lambda model: (bool(model.diagnostics.get("bias_fallback")),
                    model.diagnostics["kkt_max_residual"] > KKT_BOUND
                    or model.diagnostics["duality_gap_rel"] > GAP_BOUND)),
    ("kplsvm.trainer", "recover_bias", "trainer.recover_bias", None),
    ("kplsvm.modelsel", "staged_search", "modelsel.staged_search", None),
    # a cell served from the cache reports 0.0 seconds
    ("kplsvm.modelsel", "_Scorer.score", "modelsel.score",
     lambda out: out[2] == 0.0),
    ("kplsvm.modelsel", "evaluate", "modelsel.evaluate", None),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("qp.solve.s", "s"),
    ("qp.solve.calls", "count"),
    ("qp.iterations", "count"),
    ("qp.ms_per_iteration", "ms"),
    ("qp.solve.not_optimal", "count"),
    ("qp.assemble_dual.s", "s"),
    ("kernels.gram.s", "s"),
    ("kernels.gram.calls", "count"),
    ("kernels.cross_gram.s", "s"),
    ("kernels.cross_gram.calls", "count"),
    ("trainer.train.s", "s"),
    ("trainer.train.calls", "count"),
    ("trainer.train.self_s", "s"),
    ("trainer.recover_bias.s", "s"),
    ("trainer.bias_fallbacks", "count"),
    ("trainer.kkt_gap_misses", "count"),
    ("loss.canonical.s", "s"),
    ("loss.canonical.calls", "count"),
    ("modelsel.cache_hits", "count"),
    ("modelsel.evaluate.s", "s"),
    ("modelsel.self_s", "s"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    note: object = None     # None also when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._paused = False

    @contextmanager
    def span(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            top = stack or self._stacks.get(self._home) or [None]
            parent = top[-1].id if top[-1] is not None else None
            sp = Span(len(self.spans), name, parent, tid, time.perf_counter())
            self.spans.append(sp)
            stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            with self._lock:
                stack.pop()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    sp.note = note(out)
                return out
        return traced

    @contextmanager
    def paused(self):
        """Record no spans in the block (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextmanager
    def install(self):
        """Trace every target for the duration of the block."""
        self._home = threading.get_ident()
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kplsvm"
                                         or n.startswith("kplsvm."))]
        for modname, attr, name, note in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, note))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, traced)
        try:
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, rounds):
    """Per-layer figures for one round of the workload (sums / rounds)."""
    by_id = {sp.id: sp for sp in spans}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def total(name):
        return sum(sp.duration for sp in named(name))

    solves = [sp for sp in named("qp.solve") if sp.note is not None]
    iterations = sum(sp.note[0] for sp in solves)
    cross = [sp for sp in named("kernels.cross_gram")
             if sp.parent is None or by_id[sp.parent].name != "kernels.gram"]
    trains = named("trainer.train")
    train_self = sum(
        sp.duration - _union_length([(c.start, c.end)
                                     for c in children.get(sp.id, [])])
        for sp in trains)

    def foreign_below(sp):
        """Topmost descendant spans of sp that belong to another layer."""
        out = []
        for c in children.get(sp.id, []):
            if c.name.startswith("modelsel."):
                out.extend(foreign_below(c))
            else:
                out.append(c)
        return out

    modelsel_self = sum(
        sp.duration - _union_length([(c.start, c.end)
                                     for c in foreign_below(sp)])
        for sp in spans if sp.name.startswith("modelsel.")
        and (sp.parent is None
             or not by_id[sp.parent].name.startswith("modelsel.")))
    solve_s = total("qp.solve")
    raw = {
        "qp.solve.s": solve_s,
        "qp.solve.calls": len(named("qp.solve")),
        "qp.iterations": iterations,
        "qp.ms_per_iteration": 1e3 * solve_s / iterations if iterations
        else 0.0,
        "qp.solve.not_optimal": sum(1 for sp in solves
                                    if sp.note[1] != "optimal"),
        "qp.assemble_dual.s": total("qp.assemble_dual"),
        "kernels.gram.s": total("kernels.gram"),
        "kernels.gram.calls": len(named("kernels.gram")),
        "kernels.cross_gram.s": sum(sp.duration for sp in cross),
        "kernels.cross_gram.calls": len(cross),
        "trainer.train.s": total("trainer.train"),
        "trainer.train.calls": len(trains),
        "trainer.train.self_s": train_self,
        "trainer.recover_bias.s": total("trainer.recover_bias"),
        "trainer.bias_fallbacks": sum(1 for sp in trains
                                      if sp.note and sp.note[0]),
        "trainer.kkt_gap_misses": sum(1 for sp in trains
                                      if sp.note and sp.note[1]),
        "loss.canonical.s": total("loss.canonical"),
        "loss.canonical.calls": len(named("loss.canonical")),
        "modelsel.cache_hits": sum(1 for sp in named("modelsel.score")
                                   if sp.note),
        "modelsel.evaluate.s": total("modelsel.evaluate"),
        "modelsel.self_s": modelsel_self,
    }
    return {name: {"value": raw[name] if name == "qp.ms_per_iteration"
                   else raw[name] / rounds, "unit": unit}
            for name, unit in LAYER_METRICS}


def dump(spans):
    """Spans as plain records, for the trace file."""
    return [{"id": sp.id, "name": sp.name, "parent": sp.parent,
             "thread": sp.thread, "start": sp.start, "end": sp.end}
            for sp in spans]
