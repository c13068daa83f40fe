"""Spans around the program's layer boundaries, installed from outside.

The benchmark does not change the program to trace it: :func:`install`
replaces the public functions at each layer boundary with wrappers that
record a span (name, start, end, parent) and a few exact counters, each
wrapper patched into the namespace where its callers look the function up.
Spans stay in memory until the run ends.  The program runs in one thread
(``--workers 1``), so one span stack is enough.

Layer boundaries and the span names they record:

==============================  =============================================
span                            wrapped function (where it is looked up)
==============================  =============================================
``cli``                         ``repro.cli.main`` (opened by the caller)
``pipeline``                    ``Pipeline.evaluate`` / ``evaluate_batch``
``analysis.correlation``        ``correlation_study`` (``experiments.fig6_correlation``)
``distillation.build_factory``  ``build_factory`` (``api.pipeline``, ``scheduling.critical_path``)
``scheduling.lower_bound``      ``factory_latency_lower_bound`` (``api.pipeline``)
``mapping.<method>``            ``Mapper.place`` of every registered mapper
``mapping.fd_refine``           ``force_directed_refine`` (``api.mappers``, ``mapping.stitching``)
``mapping.stitch_hops``         ``optimize_permutation_hops`` (``mapping.stitching``)
``graphs.mapping_metrics``      ``mapping_metrics`` (``analysis.correlation``)
``routing.simulate``            ``simulate`` (``routing.simulator``, ``analysis.correlation``)
``routing.simulate_batch``      ``simulate_batch`` (``routing.batchsim``)
``store.get`` / ``store.put``   ``ResultStore.get`` / ``ResultStore.put``
==============================  =============================================

The force-directed counters come from the records the pipeline pops
through ``take_refine_stats`` (wrapped in ``api.pipeline``, so the
pipeline's own accounting is unchanged).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans whose own time is glue around the layers, reported as ``*.self_s``.
GLUE_SPANS = ("cli", "pipeline", "analysis.correlation")


class Tracer:
    """In-memory span recorder plus exact counters."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1], in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None):
        """``fn`` recording a ``name`` span per call; ``on_result(result, args)``
        runs after the span closes, so counting costs no traced time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


def _patch(tracer: Tracer, module: Any, attr: str, name: str, on_result=None) -> None:
    setattr(module, attr, tracer.wrap(name, getattr(module, attr), on_result))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary listed in the module docstring."""
    from repro.api import mappers, pipeline, store
    from repro.experiments import fig6_correlation
    from repro.mapping import stitching
    from repro.analysis import correlation
    from repro.routing import batchsim, simulator
    from repro.scheduling import critical_path

    counters = tracer.counters

    def count_sim(result, args) -> None:
        counters["routing.stall_events"] += result.stall_events
        counters["routing.wakeups"] += result.wakeups

    def count_batch(results, args) -> None:
        counters["routing.batch_points"] += len(args[0])
        for result in results:
            count_sim(result, args)

    def count_get(result, args) -> None:
        counters["store.hits"] += result is not None

    take_refine_stats = pipeline.take_refine_stats

    def counted_take_refine_stats():
        records = take_refine_stats()
        for record in records:
            counters["mapping.fd_sweeps"] += record.sweeps
            counters["mapping.fd_proposed"] += record.proposed_moves
            counters["mapping.fd_accepted"] += record.accepted_moves
        return records

    _patch(tracer, pipeline.Pipeline, "evaluate", "pipeline")
    _patch(tracer, pipeline.Pipeline, "evaluate_batch", "pipeline")
    _patch(tracer, fig6_correlation, "correlation_study", "analysis.correlation")
    _patch(tracer, pipeline, "build_factory", "distillation.build_factory")
    _patch(tracer, critical_path, "build_factory", "distillation.build_factory")
    _patch(tracer, pipeline, "factory_latency_lower_bound", "scheduling.lower_bound")
    pipeline.take_refine_stats = counted_take_refine_stats
    for method in mappers.available_mappers():
        mapper = mappers.get_mapper(method)
        mapper.place = tracer.wrap(f"mapping.{method}", mapper.place)
    _patch(tracer, mappers, "force_directed_refine", "mapping.fd_refine")
    _patch(tracer, stitching, "force_directed_refine", "mapping.fd_refine")
    _patch(tracer, stitching, "optimize_permutation_hops", "mapping.stitch_hops")
    _patch(tracer, correlation, "mapping_metrics", "graphs.mapping_metrics")
    _patch(tracer, simulator, "simulate", "routing.simulate", count_sim)
    _patch(tracer, correlation, "simulate", "routing.simulate", count_sim)
    _patch(tracer, batchsim, "simulate_batch", "routing.simulate_batch", count_batch)
    _patch(tracer, store.ResultStore, "get", "store.get", count_get)
    _patch(tracer, store.ResultStore, "put", "store.put")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def summarize(tracer: Tracer, mappers=()) -> Dict[str, Any]:
    """Per-layer times, counts, self times and coverage of one traced run.

    ``coverage`` is the share of the ``cli`` span's wall time spent inside
    *leaf* spans (spans with no traced children); ``self_s`` maps every span
    name to its duration minus its direct children's, which names where the
    uncovered remainder went.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    leaves = []
    for index, (name, start, end, parent) in enumerate(spans):
        seconds[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child_time[index]
        if not has_child[index]:
            leaves.append((start, end))
    wall = seconds["cli"]
    counters = tracer.counters
    proposed = counters["mapping.fd_proposed"]
    gets = calls["store.get"]
    metrics: Dict[str, float] = {
        "distillation.build_factory_s": seconds["distillation.build_factory"],
        "distillation.build_factory_calls": calls["distillation.build_factory"],
        "scheduling.lower_bound_s": seconds["scheduling.lower_bound"],
        "scheduling.lower_bound_calls": calls["scheduling.lower_bound"],
    }
    for method in mappers:
        metrics[f"mapping.{method}_s"] = seconds[f"mapping.{method}"]
        metrics[f"mapping.{method}_calls"] = calls[f"mapping.{method}"]
    metrics.update({
        "mapping.fd_refine_s": seconds["mapping.fd_refine"],
        "mapping.stitch_hops_s": seconds["mapping.stitch_hops"],
        "mapping.fd_sweeps": counters["mapping.fd_sweeps"],
        "mapping.fd_proposed": proposed,
        "mapping.fd_accepted": counters["mapping.fd_accepted"],
        "mapping.fd_accept_ratio": (
            counters["mapping.fd_accepted"] / proposed if proposed else 0.0
        ),
        "graphs.mapping_metrics_s": seconds["graphs.mapping_metrics"],
        "graphs.mapping_metrics_calls": calls["graphs.mapping_metrics"],
        "routing.simulate_s": seconds["routing.simulate"],
        "routing.simulate_calls": calls["routing.simulate"],
        "routing.simulate_batch_s": seconds["routing.simulate_batch"],
        "routing.batch_points": counters["routing.batch_points"],
        "routing.stall_events": counters["routing.stall_events"],
        "routing.wakeups": counters["routing.wakeups"],
        "store.get_s": seconds["store.get"],
        "store.get_calls": gets,
        "store.hit_ratio": counters["store.hits"] / gets if gets else 0.0,
        "store.put_s": seconds["store.put"],
        "store.put_calls": calls["store.put"],
    })
    for name in GLUE_SPANS:
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["trace.coverage"] = _union_length(leaves) / wall if wall else 0.0
    return {
        "metrics": metrics,
        "self_s": dict(sorted(self_s.items(), key=lambda item: -item[1])),
    }
