"""The unified build -> map -> simulate evaluation pipeline.

:class:`Pipeline` is the one evaluation path behind every figure, table,
sweep and CLI run.  It resolves a mapper from the registry, builds the
factory circuit (caching it so a sweep over many mappers builds each
``(capacity, levels, reuse)`` configuration exactly once — factory
construction dominates the two-level benches), runs the braid simulator and
reports the :class:`~repro.api.results.FactoryEvaluation` data point.

:class:`EvaluationRequest` is the serializable description of one such run.
Many requests — a sweep — run through
:class:`~repro.api.executor.SweepExecutor`, which keeps one long-lived
pipeline per process and is the only reader and writer of the persistent
:class:`~repro.api.store.ResultStore`.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuits.gates import GateKind
from ..distillation.block_code import (
    Factory,
    FactorySpec,
    ReusePolicy,
    build_factory,
)
from ..mapping.force_directed import ForceDirectedConfig, take_refine_stats
from ..mapping.stitching import StitchedMapping, StitchingConfig
from ..routing.simulator import SimulationCache, SimulatorConfig
from ..scheduling.critical_path import (
    factory_area_lower_bound,
    factory_latency_lower_bound,
)
from .mappers import MapperContext, get_mapper
from .results import FactoryEvaluation, encode_value, filter_fields


#: Built factories one pipeline keeps alive (LRU).  Two-level factories are
#: large, so the cache is bounded.
FACTORY_CACHE_SIZE = 8


def _reuse_policy(reuse: bool) -> ReusePolicy:
    return ReusePolicy.REUSE if reuse else ReusePolicy.NO_REUSE


# ----------------------------------------------------------------------
# Request model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationRequest:
    """Everything needed to evaluate one factory configuration.

    ``capacity`` is the total output capacity of the factory (``k`` for a
    single-level factory, ``k**2`` for a two-level one, matching the x-axes
    of Fig. 7 and Fig. 10).  ``options`` is a free-form bag forwarded to the
    mapper via :class:`~repro.api.mappers.MapperContext` for third-party
    procedures with their own knobs.
    """

    method: str
    capacity: int
    levels: int = 1
    reuse: bool = False
    seed: int = 0
    fd_config: Optional[ForceDirectedConfig] = None
    stitch_config: Optional[StitchingConfig] = None
    sim_config: Optional[SimulatorConfig] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def context(self) -> MapperContext:
        """The mapper-facing view of this request."""
        return MapperContext(
            fd_config=self.fd_config,
            stitch_config=self.stitch_config,
            options=dict(self.options),
        )

    def spec(self) -> FactorySpec:
        """The factory spec this request evaluates."""
        return FactorySpec.from_capacity(self.capacity, self.levels)

    def with_effective_sim_config(
        self, default: Optional[SimulatorConfig] = None
    ) -> "EvaluationRequest":
        """This request with its *effective* simulator config made explicit.

        A request whose ``sim_config`` is ``None`` inherits a pipeline or
        executor default at evaluation time, so any **storage identity**
        (e.g. :func:`repro.api.store.request_fingerprint`) must be taken
        over this resolved form — otherwise two runs with different
        defaults would alias each other's persisted entries.  This is the
        single definition of that resolution rule.
        """
        effective = self.sim_config or default or SimulatorConfig()
        if effective is self.sim_config:
            return self
        return replace(self, sim_config=effective)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding (configs become plain dicts)."""
        data: Dict[str, Any] = {
            "method": self.method,
            "capacity": self.capacity,
            "levels": self.levels,
            "reuse": self.reuse,
            "seed": self.seed,
            "fd_config": encode_value(self.fd_config),
            "stitch_config": encode_value(self.stitch_config),
            "sim_config": _encode_sim_config(self.sim_config),
            "options": encode_value(dict(self.options)),
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationRequest":
        """Inverse of :meth:`to_dict`."""
        payload = dict(filter_fields(cls, data))
        if payload.get("fd_config"):
            payload["fd_config"] = ForceDirectedConfig(**payload["fd_config"])
        else:
            payload["fd_config"] = None
        if payload.get("stitch_config"):
            payload["stitch_config"] = StitchingConfig(**payload["stitch_config"])
        else:
            payload["stitch_config"] = None
        payload["sim_config"] = _decode_sim_config(payload.get("sim_config"))
        payload["options"] = dict(payload.get("options") or {})
        return cls(**payload)


def _encode_sim_config(config: Optional[SimulatorConfig]) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    return {
        "durations": {kind.value: int(v) for kind, v in config.durations.items()},
        "allow_detour": config.allow_detour,
        "detour_slack": config.detour_slack,
        "max_candidates": config.max_candidates,
        "hops": {str(index): list(cell) for index, cell in config.hops.items()},
        "max_cycles": config.max_cycles,
    }


def _decode_sim_config(data: Optional[Mapping[str, Any]]) -> Optional[SimulatorConfig]:
    if not data:
        return None
    payload = dict(data)
    payload["durations"] = {
        GateKind(kind): int(v) for kind, v in payload.get("durations", {}).items()
    }
    payload["hops"] = {
        int(index): tuple(cell) for index, cell in payload.get("hops", {}).items()
    }
    return SimulatorConfig(**payload)


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
@dataclass
class PipelineStats:
    """Counters exposed for tests, benchmarking and capacity planning.

    ``factory_builds`` / ``factory_cache_hits`` count factory-circuit construction
    against the LRU factory cache; ``sim_cache_hits`` counts simulations
    answered from the :class:`~repro.routing.simulator.SimulationCache`
    without re-simulating; ``fd_sweeps`` / ``fd_moves_accepted`` aggregate
    the force-directed annealer's :class:`~repro.mapping.force_directed.RefineStats`
    over every refinement the pipeline's mappers ran.

    ``sim_stall_events`` / ``sim_distinct_stalls`` / ``sim_wakeups``
    aggregate the simulator's stall counters (see
    :class:`~repro.routing.simulator.SimulationResult`) over every
    evaluation, cached or not — they describe the evaluated workloads, not
    the simulation work this process performed, so the numbers are stable
    across cache states and worker counts.

    ``build_seconds`` / ``map_seconds`` / ``sim_seconds`` split the wall
    time of the three pipeline phases — factory-circuit construction
    (cache misses only), mapper placement, and simulation (including
    batched runs; cache hits cost ~0) — so a bench regression is
    attributable to the right layer instead of only to total wall time.
    """

    factory_builds: int = 0
    factory_cache_hits: int = 0
    evaluations: int = 0
    sim_cache_hits: int = 0
    fd_sweeps: int = 0
    fd_moves_accepted: int = 0
    sim_stall_events: int = 0
    sim_distinct_stalls: int = 0
    sim_wakeups: int = 0
    build_seconds: float = 0.0
    map_seconds: float = 0.0
    sim_seconds: float = 0.0

    def snapshot(self) -> "PipelineStats":
        """An independent copy (used for before/after deltas)."""
        return dataclasses.replace(self)

    def delta(self, earlier: "PipelineStats") -> "PipelineStats":
        """Counter-wise difference ``self - earlier`` over every field."""
        return PipelineStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in dataclasses.fields(self)
            }
        )


class Pipeline:
    """Build -> map -> simulate, with factory-circuit and simulation caching.

    Parameters
    ----------
    sim_config:
        Default simulator configuration for every evaluation (a request's
        own ``sim_config`` takes precedence).

    The pipeline only computes: it never reads or writes a
    :class:`~repro.api.store.ResultStore`.  Persistence across processes is
    :class:`~repro.api.executor.SweepExecutor`'s job (``store=``).

    Built factories are kept in an LRU bounded at :data:`FACTORY_CACHE_SIZE`
    and simulation results in a :class:`~repro.routing.simulator.SimulationCache`,
    so repeated sweep points never rebuild or re-simulate.
    """

    def __init__(self, sim_config: Optional[SimulatorConfig] = None) -> None:
        self.sim_config = sim_config
        self.sim_cache = SimulationCache()
        self.stats = PipelineStats()
        self._factories: "OrderedDict[Tuple[int, int, ReusePolicy], Factory]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Factory cache
    # ------------------------------------------------------------------
    def factory(self, capacity: int, levels: int = 1, reuse: bool = False) -> Factory:
        """The (cached) base factory for a configuration.

        Factories are always built with barriers between rounds — every
        mapper is evaluated on the same barriered schedule so the comparison
        isolates mapping quality (Section V-A).  Callers must treat the
        returned factory as read-only.
        """
        spec = FactorySpec.from_capacity(capacity, levels)
        key = (spec.k, spec.levels, _reuse_policy(reuse))
        cached = self._factories.get(key)
        if cached is not None:
            self._factories.move_to_end(key)
            self.stats.factory_cache_hits += 1
            return cached
        build_started = time.perf_counter()
        built = build_factory(
            spec, reuse_policy=key[2], barriers_between_rounds=True
        )
        self.stats.build_seconds += time.perf_counter() - build_started
        self.stats.factory_builds += 1
        self._factories[key] = built
        while len(self._factories) > FACTORY_CACHE_SIZE:
            self._factories.popitem(last=False)
        return built

    def clear_cache(self) -> None:
        """Drop every cached factory and memoized simulation result."""
        self._factories.clear()
        self.sim_cache.clear()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _map_request(self, request: EvaluationRequest):
        """Resolve the mapper, build the factory and place one request.

        Returns ``(sim_config, circuit, placement, point_config)``: the
        request's effective simulator config and the concrete simulation
        point — with hop configs resolved for stitched mappings — after
        folding the mapper's refinement statistics into :attr:`stats`.
        """
        # Resolve the mapper first: an unknown name should fail before any
        # factory is built, with a message listing the registered mappers.
        mapper = get_mapper(request.method)
        sim_config = request.sim_config or self.sim_config or SimulatorConfig()
        factory = self.factory(request.capacity, request.levels, request.reuse)

        # Attribute only the refinements this mapper run causes: drop the
        # records already pending (refinements outside the pipeline), then
        # count everything pending once the placement returns.
        take_refine_stats()
        map_started = time.perf_counter()
        outcome = mapper.place(factory, seed=request.seed, context=request.context())
        self.stats.map_seconds += time.perf_counter() - map_started
        for refine in take_refine_stats():
            self.stats.fd_sweeps += refine.sweeps
            self.stats.fd_moves_accepted += refine.accepted_moves

        if isinstance(outcome, StitchedMapping):
            hop_config = replace(sim_config, hops=outcome.hops)
            return sim_config, outcome.factory.circuit, outcome.placement, hop_config
        return sim_config, factory.circuit, outcome, sim_config

    def _result_point(
        self, request: EvaluationRequest, sim_config, placement, sim_result
    ) -> FactoryEvaluation:
        """Fold one simulation result into the reported data point."""
        # Imported lazily: repro.analysis imports this module at package
        # initialisation, so a top-level import would be circular.
        from ..analysis.volume import mapping_area

        area = mapping_area(placement)
        spec = request.spec()
        self.stats.evaluations += 1
        self.stats.sim_stall_events += sim_result.stall_events
        self.stats.sim_distinct_stalls += sim_result.distinct_stalls
        self.stats.sim_wakeups += sim_result.wakeups
        return FactoryEvaluation(
            method=request.method,
            capacity=request.capacity,
            levels=request.levels,
            reuse=request.reuse,
            latency=sim_result.latency,
            area=area,
            volume=sim_result.latency * area,
            critical_latency=factory_latency_lower_bound(
                spec, dict(sim_config.durations)
            ),
            critical_area=factory_area_lower_bound(spec),
            stall_cycles=sim_result.stall_cycles,
        )

    def evaluate(self, request: EvaluationRequest) -> FactoryEvaluation:
        """Run one request end to end and return its data point."""
        sim_config, circuit, placement, point_config = self._map_request(request)
        hits_before = self.sim_cache.hits
        sim_started = time.perf_counter()
        sim_result = self.sim_cache.simulate(circuit, placement, point_config)
        self.stats.sim_seconds += time.perf_counter() - sim_started
        self.stats.sim_cache_hits += self.sim_cache.hits - hits_before
        return self._result_point(request, sim_config, placement, sim_result)

    def evaluate_batch(
        self, requests: Sequence[EvaluationRequest]
    ) -> List[FactoryEvaluation]:
        """Evaluate many requests, batching the cache-missing simulations.

        Semantically identical to ``[self.evaluate(r) for r in requests]``
        — same results, same cache accounting — but every simulation goes
        through one :meth:`~repro.routing.simulator.SimulationCache.simulate_many`
        call, which runs the cache misses through
        :func:`~repro.routing.batchsim.simulate_batch`.
        """
        requests = list(requests)
        mapped = [self._map_request(request) for request in requests]
        hits_before = self.sim_cache.hits
        sim_started = time.perf_counter()
        sim_results = self.sim_cache.simulate_many(
            [(circuit, placement, point_config)
             for _, circuit, placement, point_config in mapped]
        )
        self.stats.sim_seconds += time.perf_counter() - sim_started
        self.stats.sim_cache_hits += self.sim_cache.hits - hits_before
        return [
            self._result_point(request, sim_config, placement, sim_result)
            for request, (sim_config, _, placement, _), sim_result
            in zip(requests, mapped, sim_results)
        ]
