"""Outside-in tracing of randlp's layers.

`Tracer.wrap` replaces a module attribute with a wrapper that records one span
per call: (name, start, end, parent, count). The attribute replaced is the
name the caller looks up, e.g. `randlp.harness.solve` rather than
`randlp.solver.solve`, because harness bound the function at import time.
Spans stay in memory; `layer_metrics` turns them into per-layer figures.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from typing import Callable, Dict, List, Optional

# Span fields.
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, module_name: str, attr: str, span_name: str, count: Optional[Callable] = None) -> None:
        # importlib returns the module even where a package attribute shadows
        # it: `randlp.restore` is the function, not the submodule.
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [span_name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[COUNT] = count(out)
                return out
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        setattr(module, attr, traced)


def _emitted_bytes(files) -> int:
    return sum(os.path.getsize(path) for path in files)


def install(tracer: Tracer) -> None:
    """Wrap every traced randlp function at the name its caller looks up."""
    tracer.wrap("randlp.config", "load_config", "config.load_config")
    tracer.wrap("randlp.harness", "run_campaign", "harness.run_campaign")
    tracer.wrap("randlp.harness", "emit", "harness.emit", _emitted_bytes)
    tracer.wrap("randlp.harness", "sample_matrix", "sampling.sample_matrix", lambda a: a.nbytes)
    tracer.wrap("randlp.harness", "sample_cost_vector", "sampling.sample_cost_vector")
    tracer.wrap("randlp.harness", "solve", "solver.solve", lambda out: out.pivots)
    tracer.wrap("randlp.harness", "restore", "restore.restore", lambda tr: (tr.iterations, tr.converged))
    tracer.wrap("randlp.restore", "gram_solve", "linalg.gram_solve")
    tracer.wrap("randlp.restore", "pruned_gram_solve", "linalg.pruned_gram_solve")
    tracer.wrap("randlp.harness", "tail_probability_mc", "stats.tail_probability_mc")
    tracer.wrap("randlp.stats", "draw_entries", "sampling.draw_entries")
    for fn in ("summarize", "ks_test", "histogram", "ecdf"):
        tracer.wrap("randlp.harness", fn, "stats.aggregate")


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of values, 0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: List[list], rounds: int, loop_wall: float) -> Dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Seconds, calls, bytes and counts are per round, so they do not depend on
    how many rounds fit in the run. Latency percentiles are per call.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    self_s: Dict[str, List[float]] = {}
    counts: Dict[str, list] = {}
    for span, child in zip(spans, covered):
        self_s.setdefault(span[NAME], []).append(span[END] - span[START] - child)
        if span[COUNT] is not None:
            counts.setdefault(span[NAME], []).append(span[COUNT])
    loop_roots = sum(
        span[END] - span[START] for span in spans if span[PARENT] < 0 and span[NAME] != "config.load_config"
    )

    def calls(name: str) -> float:
        return len(self_s.get(name, [])) / rounds

    def secs(name: str) -> float:
        return sum(self_s.get(name, [])) / rounds

    def ms(name: str, q: int) -> float:
        return 1e3 * _quantile(self_s.get(name, []), q)

    pivots = sum(counts.get("solver.solve", []))
    solves = len(self_s.get("solver.solve", []))
    restores = counts.get("restore.restore", [])
    sweeps = [r for r, _ in restores]
    return {
        "config.load_config.s": sum(self_s.get("config.load_config", [])),
        "sampling.sample_matrix.calls": calls("sampling.sample_matrix"),
        "sampling.sample_matrix.s": secs("sampling.sample_matrix"),
        "sampling.sample_matrix.mb": sum(counts.get("sampling.sample_matrix", [])) / rounds / 1e6,
        "sampling.sample_cost_vector.s": secs("sampling.sample_cost_vector"),
        "sampling.draw_entries.s": secs("sampling.draw_entries"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.s": secs("solver.solve"),
        "solver.solve.p50_ms": ms("solver.solve", 50),
        "solver.solve.p95_ms": ms("solver.solve", 95),
        "solver.pivots": pivots / rounds,
        "solver.pivots_per_solve": pivots / solves if solves else 0.0,
        "solver.us_per_pivot": 1e6 * sum(self_s.get("solver.solve", [])) / pivots if pivots else 0.0,
        "restore.restore.calls": calls("restore.restore"),
        "restore.restore.s": secs("restore.restore"),
        "restore.restore.p95_ms": ms("restore.restore", 95),
        "restore.sweeps": sum(sweeps) / rounds,
        "restore.sweeps_max": float(max(sweeps, default=0)),
        "restore.converged_ratio": sum(ok for _, ok in restores) / len(restores) if restores else 0.0,
        "linalg.gram_solve.calls": calls("linalg.gram_solve"),
        "linalg.gram_solve.s": secs("linalg.gram_solve"),
        "linalg.pruned_gram_solve.calls": calls("linalg.pruned_gram_solve"),
        "stats.tail_probability_mc.s": secs("stats.tail_probability_mc"),
        "stats.aggregate.s": secs("stats.aggregate"),
        "harness.overhead.s": secs("harness.run_campaign"),
        "harness.emit.s": secs("harness.emit"),
        "harness.emit.bytes": sum(counts.get("harness.emit", [])) / rounds,
        "trace.span_coverage": loop_roots / loop_wall,
    }
