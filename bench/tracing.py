"""In-process spans around the calls `bcn` makes into each layer.

The wrappers are installed on module and class attributes from the
benchmark's side only; the program itself carries no instrumentation.
`eval_expr` is deliberately not wrapped: it runs once per column and
per expression node, and the span cost would swamp what it measures.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager

from bcnkit import boolmat, cli, compiler, netlang, observe, reach

#: (owner, attribute, span name) of every call wrapped in a span.
TARGETS = (
    (netlang, "parse_network", "netlang.parse_network"),
    (compiler, "algebraic_form", "compiler.algebraic_form"),
    (compiler, "render_algebraic", "compiler.render_algebraic"),
    (reach, "one_step_matrix", "reach.one_step_matrix"),
    (reach, "controllability_matrix", "reach.controllability_matrix"),
    (reach, "load_set_spec", "reach.load_set_spec"),
    (reach, "index_matrix", "reach.index_matrix"),
    (reach, "set_controllability_matrix", "reach.set_controllability_matrix"),
    (reach, "output_controllability_matrix", "reach.output_controllability_matrix"),
    (observe, "partition_pairs", "observe.partition_pairs"),
    (observe, "extended_system", "observe.extended_system"),
    (observe, "observability_verdict", "observe.observability_verdict"),
    (observe, "render_report", "observe.render_report"),
    (boolmat.BooleanMatrix, "mul", "boolmat.mul"),
    (boolmat.BooleanMatrix, "transpose", "boolmat.transpose"),
    (boolmat.BooleanMatrix, "to_text", "boolmat.to_text"),
)

#: Layers whose peak traced memory is recorded in a memory pass.
MEMORY_LAYERS = ("compiler", "reach", "observe")


def _counts(name: str, args: tuple, result) -> dict:
    """Work counters read at a span boundary from its arguments or result."""
    if name == "compiler.algebraic_form":
        return {"columns": 1 << (args[0].n + args[0].m)}
    if name == "observe.extended_system":
        return {"pair_space": 1 << (2 * args[0].n)}
    if name == "observe.observability_verdict":
        return {"theta_pairs": len(result.theta),
                "witness_len_sum": sum(w[1] for w in result.witnesses if w)}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, parent: int | None):
        self.name, self.start, self.end, self.parent, self.counts = name, 0.0, 0.0, parent, {}


class Tracer:
    """Collects spans in memory; with memory=True it also records, per
    layer, the largest rise of traced memory during one of its outermost
    calls (tracemalloc must be running)."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.memory = memory
        self.peaks = {layer: 0 for layer in MEMORY_LAYERS}
        self._mem_span: int | None = None
        self._mem_base = 0

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(Span(name, self._stack[-1] if self._stack else None))
            self._stack.append(idx)
            if self.memory and layer in self.peaks and self._mem_span is None:
                self._mem_span = idx
                self._mem_base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span = self.spans[idx]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if self._mem_span == idx:
                    rise = tracemalloc.get_traced_memory()[1] - self._mem_base
                    self.peaks[layer] = max(self.peaks[layer], rise)
                    self._mem_span = None
            span.counts = _counts(name, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; yields the wrapped `cli.main`."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self.wrap("cli.main", cli.main)
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one pass of spans."""
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    counts: dict[str, int] = {}
    for sp in spans:
        dur = sp.end - sp.start
        total[sp.name] = total.get(sp.name, 0.0) + dur
        if sp.parent is not None:
            child_time[sp.parent] += dur
        for key, value in sp.counts.items():
            counts[key] = counts.get(key, 0) + value

    def self_time(name):
        return sum(sp.end - sp.start - child_time[i]
                   for i, sp in enumerate(spans) if sp.name == name)

    t = total.get
    return {
        "netlang.parse_network_s": t("netlang.parse_network", 0.0),
        "compiler.algebraic_form_s": t("compiler.algebraic_form", 0.0),
        "compiler.columns": counts.get("columns", 0),
        "compiler.render_algebraic_s": t("compiler.render_algebraic", 0.0),
        "reach.one_step_matrix_s": t("reach.one_step_matrix", 0.0),
        "reach.controllability_matrix_s": t("reach.controllability_matrix", 0.0),
        "reach.closure_rounds": sum(closure_rounds_per_closure(spans)),
        "reach.set_controllability_matrix_s": t("reach.set_controllability_matrix", 0.0),
        "reach.output_controllability_matrix_s": t("reach.output_controllability_matrix", 0.0),
        "boolmat.mul_calls": sum(1 for sp in spans if sp.name == "boolmat.mul"),
        "boolmat.mul_s": t("boolmat.mul", 0.0),
        "boolmat.transpose_s": t("boolmat.transpose", 0.0),
        "boolmat.to_text_s": t("boolmat.to_text", 0.0),
        "observe.partition_pairs_s": t("observe.partition_pairs", 0.0),
        "observe.extended_system_s": t("observe.extended_system", 0.0),
        "observe.search_self_s": self_time("observe.observability_verdict"),
        "observe.theta_pairs": counts.get("theta_pairs", 0),
        "observe.pair_space": counts.get("pair_space", 0),
        "observe.witness_len_sum": counts.get("witness_len_sum", 0),
        "observe.render_report_s": t("observe.render_report", 0.0),
        "cli.self_s": self_time("cli.main"),
    }


def closure_rounds_per_closure(spans: list[Span]) -> list[int]:
    """`mul` calls inside each `controllability_matrix` span, in order."""
    rounds = {i: 0 for i, sp in enumerate(spans) if sp.name == "reach.controllability_matrix"}
    for sp in spans:
        if sp.name == "boolmat.mul" and sp.parent in rounds:
            rounds[sp.parent] += 1
    return list(rounds.values())


def span_records(spans: list[Span]) -> list[dict]:
    return [{"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             **sp.counts} for sp in spans]
