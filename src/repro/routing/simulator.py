"""Cycle-accurate braid scheduling simulator.

This is the evaluation substrate of the paper (Section VIII-A): a simulator
that takes a gate-level schedule plus a physical qubit mapping and executes
the braids on the 2-D mesh, in parallel where the dependency structure and
routing allow, inserting stalls whenever two braids would intersect.

Semantics reproduced from the paper's description:

* any data hazard (the same qubit appearing in two instructions) is treated
  as a true dependency;
* braids are scheduled in parallel when their paths do not intersect; when
  they would intersect, one braid stalls until the other completes;
* barriers are machine-wide synchronisation points (implemented by the
  paper as a multi-target CNOT over every qubit);
* multi-target CNOT gates are routed as a star of paths from the control to
  every target, occupying the union of those paths.

The simulator is event driven: time jumps from one braid-completion event to
the next.  Two engines implement these semantics:

* :func:`simulate` — the default **bitmask occupancy / event-driven wakeup**
  engine.  Cell sets are packed into arbitrary-precision int bitmasks (see
  :meth:`~repro.routing.mesh.Mesh.cell_index`), so "is this path free?" is
  one integer AND against a single ``locked`` mask.  A braid that stalls is
  *parked* on a watch set of cells that blocked its route candidates (one
  blocker per candidate) and is only re-tried when a retiring braid frees
  one of those cells, so the cost is proportional to the number of events
  and wakeups rather than ``events x stalled gates x candidates``.
* :func:`simulate_reference` — the retained set-based oracle: frozenset
  occupancy, every stalled gate re-tried at every completion event.  The
  two engines produce byte-identical :meth:`SimulationResult.to_dict`
  output (pinned by the randomized parity suite); the oracle additionally
  asserts the wakeup engine's parking invariant — a parked gate none of
  whose recorded blockers was freed must still fail to route.
"""

from __future__ import annotations

import dataclasses
import heapq
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..circuits.circuit import Circuit
from ..circuits.dag import build_dependency_dag
from ..circuits.gates import DEFAULT_DURATIONS, Gate, GateKind
from ..mapping.placement import Placement
from ..persistutil import tagged_fingerprint
from .braid import BraidPath
from .mesh import Cell, LatticeCell, Mesh, popcount as _popcount, tile_to_lattice
from .router import BraidRouter


@dataclass
class SimulatorConfig:
    """Knobs of the braid simulator.

    Attributes
    ----------
    durations:
        Gate-kind to cycle-count mapping (defaults to
        :data:`~repro.circuits.gates.DEFAULT_DURATIONS`).
    allow_detour:
        Let blocked braids search for longer detour routes instead of
        stalling (off by default, matching the paper's stall-only baseline).
    detour_slack:
        Maximum detour length as a multiple of the shortest route.
    max_candidates:
        How many rectilinear route shapes each braid may choose from before
        it stalls (or detours); forwarded to
        :class:`~repro.routing.router.BraidRouter`.  The default of 2 models
        the paper's stall-on-intersection semantics, where a braid whose
        natural corridor is busy waits; larger values let braids steer
        around traffic and weaken the mapping's influence on latency.
    hops:
        Optional map from gate index to an intermediate *tile* cell the braid
        must pass through (Valiant-style routing for permutation braids,
        Section VII-B.3).
    max_cycles:
        Safety limit; simulation aborts with an error beyond this.
    """

    durations: Mapping[GateKind, int] = field(
        default_factory=lambda: dict(DEFAULT_DURATIONS)
    )
    allow_detour: bool = False
    detour_slack: float = 2.0
    max_candidates: int = 2
    hops: Mapping[int, Cell] = field(default_factory=dict)
    max_cycles: int = 10_000_000


@dataclass
class SimulationResult:
    """Outcome of simulating one circuit on one placement.

    Stall accounting reports three counters:

    ``stall_events``
        The *legacy retry count*: how many failed route attempts the
        retry-every-event reference engine performs — one per stalled gate
        per completion event it stays stalled through.  Kept for
        comparability with earlier BENCH records; the wakeup engine derives
        the identical value from event indices without performing the
        retries.
    ``distinct_stalls``
        How many gates stalled at least once (engine-independent).
    ``wakeups``
        How many times a parked gate was re-tried because a retiring braid
        freed one of its recorded blocking cells.  This is the wakeup
        engine's actual retry count; ``stall_events - wakeups`` failed
        retries are the work the event-driven engine skips.
        :func:`simulate_reference` reproduces the same number via shadow
        accounting when ``track_wakeups`` is on (its default), and reports
        0 when tracking is disabled for like-for-like timing.
    """

    latency: int
    area: int
    gate_start: List[int]
    gate_end: List[int]
    stall_cycles: int
    stall_events: int
    braided_gates: int
    max_concurrent_braids: int
    total_braid_cells: int
    distinct_stalls: int = 0
    wakeups: int = 0

    @property
    def volume(self) -> int:
        """Space-time volume (area in tiles times latency in cycles)."""
        return self.area * self.latency

    @property
    def average_braid_length(self) -> float:
        """Average braid footprint in lattice cells."""
        if self.braided_gates == 0:
            return 0.0
        return self.total_braid_cells / self.braided_gates

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict of every field plus the derived volume metrics."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        data["gate_start"] = list(self.gate_start)
        data["gate_end"] = list(self.gate_end)
        data["volume"] = self.volume
        data["average_braid_length"] = self.average_braid_length
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_dict` (derived keys are ignored)."""
        names = {f.name for f in dataclasses.fields(cls) if f.init}
        payload = {key: value for key, value in data.items() if key in names}
        payload["gate_start"] = [int(v) for v in payload.get("gate_start", [])]
        payload["gate_end"] = [int(v) for v in payload.get("gate_end", [])]
        return cls(**payload)  # type: ignore[arg-type]


class RoutingDeadlockError(RuntimeError):
    """Raised when no ready braid can be routed and nothing is in flight."""


def _gate_list(circuit_or_gates) -> Tuple[Gate, ...]:
    if isinstance(circuit_or_gates, Circuit):
        return circuit_or_gates.gates
    return tuple(circuit_or_gates)


def _require_placed(used_qubits: Set[int], placement: Placement) -> None:
    """Raise :class:`ValueError` unless every used qubit is placed."""
    missing = [q for q in used_qubits if q not in placement.positions]
    if missing:
        raise ValueError(
            f"{len(missing)} qubits used by the circuit are not placed "
            f"(first few: {sorted(missing)[:5]})"
        )


def _prepare_simulation(
    circuit_or_gates, placement: Placement, config: SimulatorConfig
):
    """Shared setup of both engines: validation, mesh, router, hops, DAG."""
    gates = _gate_list(circuit_or_gates)
    used_qubits: Set[int] = set()
    for gate in gates:
        used_qubits.update(gate.qubits)
    _require_placed(used_qubits, placement)

    mesh = Mesh.from_placement(
        placement.positions, width=placement.width, height=placement.height
    )
    router = BraidRouter(
        mesh,
        allow_detour=config.allow_detour,
        detour_slack=config.detour_slack,
        max_candidates=config.max_candidates,
    )
    hop_cells: Dict[int, LatticeCell] = {
        index: tile_to_lattice(cell) for index, cell in config.hops.items()
    }
    dag = build_dependency_dag(gates)
    return gates, mesh, router, hop_cells, dag


def _empty_result(placement: Placement) -> SimulationResult:
    return SimulationResult(
        latency=0,
        area=placement.area,
        gate_start=[],
        gate_end=[],
        stall_cycles=0,
        stall_events=0,
        braided_gates=0,
        max_concurrent_braids=0,
        total_braid_cells=0,
        distinct_stalls=0,
        wakeups=0,
    )


def simulate(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
) -> SimulationResult:
    """Simulate a schedule on a placement and return timing/volume results.

    This is the cycle-accurate evaluation of Section VIII-A.  Every qubit
    referenced by the gate list must be placed; the simulation is
    deterministic, so the same (circuit, placement, config) triple always
    produces the same :class:`SimulationResult` (which is what makes
    :class:`SimulationCache` sound).

    Execution model:

    * gates become *ready* when every dependency (as computed by
      :func:`~repro.circuits.dag.build_dependency_dag`; any shared qubit is
      a true dependency) has completed;
    * ready gates are issued in program order; non-braided gates always
      start immediately;
    * a braided gate asks the :class:`~repro.routing.router.BraidRouter` for
      a path avoiding the cells locked by in-flight braids.  If no path
      exists the gate **stalls** until a braid completion frees a cell that
      blocked it (with ``allow_detour`` the router may instead accept a
      longer path through free channels, trading space for time; see the
      router's stall-vs-detour notes);
    * a routed braid locks its cells for the gate's duration and releases
      them on completion.

    This default engine keeps occupancy as one integer bitmask (bit ``i`` =
    lattice cell ``i``, see :meth:`~repro.routing.mesh.Mesh.cell_index`) and
    is **event-driven all the way down**: a stalled gate is parked in a
    cell -> waiters index keyed by its watch cells — one blocking cell per
    route candidate (the full locked set after a failed BFS detour) — and
    is re-tried only when a retiring braid frees one of those cells.
    Parking is sound because routing failure is monotone in the locked
    set: while every watch cell stays locked, each candidate still
    intersects the locked set, so skipped retries could not have
    succeeded.
    Issue order within an event is program order (a min-heap on the gate
    index), and time still jumps from one completion event to the next, so
    the cost is proportional to events plus wakeups — not
    ``events x stalled gates``.  Results are byte-identical to
    :func:`simulate_reference`, which retains the retry-every-event
    set-based loop as the verification oracle.

    Stalled cycles (start minus ready time, summed over gates) are reported
    as ``stall_cycles`` and charged to the mapping; see
    :class:`SimulationResult` for the three stall counters.

    Raises :class:`RoutingDeadlockError` if ready braids cannot be routed on
    an otherwise idle mesh, and :class:`RuntimeError` past
    ``config.max_cycles``.
    """
    config = config or SimulatorConfig()
    durations = config.durations
    gates, mesh, router, hop_cells, dag = _prepare_simulation(
        circuit_or_gates, placement, config
    )
    n = len(gates)
    if n == 0:
        return _empty_result(placement)

    remaining_preds = [len(p) for p in dag.predecessors]
    ready_time = [0] * n
    gate_start: List[int] = [-1] * n
    gate_end: List[int] = [-1] * n

    # Per-gate lookups hoisted out of the attempt loop: durations and gate
    # kinds are immutable, and enum/dict probes per retry are measurable on
    # congested runs.
    gate_durations = [gate.duration(durations) for gate in gates]
    gate_braided = [gate.is_braided for gate in gates]
    route_pair = router.route_pair_masked
    route_star = router.route_star_masked
    # Plain pair braids (no hop, no detour) are the overwhelming majority of
    # retries, so their candidate masks are cached per gate index and the
    # accept test is unrolled inline — a stalled gate's retry is then a few
    # integer ANDs with no method or dict-lookup overhead.  Stars, hop
    # routes and detour fallbacks keep going through the router.
    simple_pair = [
        gate.is_braided
        and gate.kind is not GateKind.CXX
        and index not in hop_cells
        and not config.allow_detour
        for index, gate in enumerate(gates)
    ]
    pair_masks: List[Optional[Tuple[int, ...]]] = [None] * n

    locked_mask = 0
    active: List[Tuple[int, int, int]] = []  # (end time, gate index, cell mask)
    now = 0
    completed = 0
    stall_events = 0
    distinct_stalls = 0
    wakeups = 0
    total_braid_cells = 0
    braided_gates = 0
    concurrent_braids = 0
    max_concurrent_braids = 0

    # Wakeup machinery.  ``scan`` counts completion-event iterations (the
    # reference engine's retry rounds); a gate that first stalled at scan s
    # and issues at scan t would have failed t - s reference retries, which
    # is how the legacy ``stall_events`` count is derived without performing
    # them.  ``blocker_mask[i]`` is nonzero exactly while gate i is parked;
    # ``waiters`` maps a cell index to the gates parked on it (entries are
    # lazily discarded when the recorded mask no longer claims the cell).
    scan = 0
    first_stall_scan = [-1] * n
    blocker_mask = [0] * n
    parked_count = 0
    waiters: Dict[int, List[int]] = {}
    # OR of every cell with at least one registered waiter: a retiring braid
    # whose mask misses it wakes nobody and costs a single AND — only the
    # intersecting bits are ever decomposed.
    waited_mask = 0

    # Gates to attempt at the current event, popped in program order.
    attempt: List[int] = [i for i in range(n) if remaining_preds[i] == 0]
    heapq.heapify(attempt)

    while completed < n:
        if now > config.max_cycles:
            raise RuntimeError(
                f"simulation exceeded max_cycles={config.max_cycles}"
            )
        # ------------------------------------------------------------------
        # Attempt every newly ready or woken gate, in program order.
        # ------------------------------------------------------------------
        while attempt:
            index = heapq.heappop(attempt)
            if gate_braided[index]:
                qubits = gates[index].qubits
                if simple_pair[index]:
                    masks = pair_masks[index]
                    if masks is None:
                        masks, _ = router._mask_plan(
                            mesh.qubit_cell(qubits[0]), mesh.qubit_cell(qubits[1])
                        )
                        pair_masks[index] = masks
                    if not locked_mask:
                        routed, mask = True, masks[0]
                    else:
                        routed = False
                        mask = 0
                        for candidate in masks:
                            hit = candidate & locked_mask
                            if not hit:
                                routed, mask = True, candidate
                                break
                            mask |= hit & -hit
                elif gates[index].kind is GateKind.CXX:
                    routed, mask = route_star(qubits[0], qubits[1:], locked_mask)
                else:
                    routed, mask = route_pair(
                        qubits[0],
                        qubits[1],
                        locked_mask,
                        hop=hop_cells.get(index) if hop_cells else None,
                    )
                if not routed:
                    # Park the gate on its watch cells (one blocker per
                    # blocked candidate); it is re-tried only when one of
                    # them is freed.
                    if first_stall_scan[index] < 0:
                        first_stall_scan[index] = scan
                        distinct_stalls += 1
                    blocker_mask[index] = mask
                    parked_count += 1
                    waited_mask |= mask
                    bits = mask
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        waiters.setdefault(low.bit_length() - 1, []).append(index)
                    continue
                locked_mask |= mask
                total_braid_cells += _popcount(mask)
                braided_gates += 1
                concurrent_braids += 1
                if concurrent_braids > max_concurrent_braids:
                    max_concurrent_braids = concurrent_braids
            else:
                mask = 0
            if first_stall_scan[index] >= 0:
                # The reference engine would have re-tried (and failed) this
                # gate at every event since its first stall.
                stall_events += scan - first_stall_scan[index]
            duration = gate_durations[index]
            gate_start[index] = now
            gate_end[index] = now + duration
            heapq.heappush(active, (now + duration, index, mask))

        if not active:
            if parked_count:
                raise RoutingDeadlockError(
                    f"{parked_count} gates cannot be routed on an otherwise idle mesh"
                )
            break

        # ------------------------------------------------------------------
        # Advance to the next completion event, retire everything there, and
        # wake the gates parked on the freed cells.
        # ------------------------------------------------------------------
        now = active[0][0]
        scan += 1
        while active and active[0][0] == now:
            _, index, mask = heapq.heappop(active)
            if mask:
                locked_mask &= ~mask
                concurrent_braids -= 1
                bits = mask & waited_mask
                while bits:
                    low = bits & -bits
                    bits ^= low
                    waited_mask ^= low
                    queue = waiters.pop(low.bit_length() - 1, None)
                    if queue:
                        for waiter in queue:
                            if blocker_mask[waiter] & low:
                                blocker_mask[waiter] = 0
                                parked_count -= 1
                                wakeups += 1
                                heapq.heappush(attempt, waiter)
            completed += 1
            for successor in dag.successors[index]:
                remaining_preds[successor] -= 1
                if ready_time[successor] < now:
                    ready_time[successor] = now
                if remaining_preds[successor] == 0:
                    heapq.heappush(attempt, successor)

    latency = max(gate_end) if gate_end else 0
    stall_cycles = sum(
        max(0, start - ready_at)
        for start, ready_at in zip(gate_start, ready_time)
        if start >= 0
    )
    return SimulationResult(
        latency=latency,
        area=placement.area,
        gate_start=gate_start,
        gate_end=gate_end,
        stall_cycles=stall_cycles,
        stall_events=stall_events,
        braided_gates=braided_gates,
        max_concurrent_braids=max_concurrent_braids,
        total_braid_cells=total_braid_cells,
        distinct_stalls=distinct_stalls,
        wakeups=wakeups,
    )


def simulate_reference(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
    track_wakeups: bool = True,
) -> SimulationResult:
    """The retained set-based oracle engine (PR 2/3 semantics).

    Occupancy is a plain set of lattice cells and every stalled gate is
    re-tried at every completion event — the straightforward transcription
    of the paper's semantics that :func:`simulate` must match byte for
    byte.  Use it to verify the default engine (the randomized parity suite
    does) or to time the pre-wakeup behaviour.

    With ``track_wakeups`` (the default) the oracle additionally runs
    *shadow parking accounting*: on each failed route it records the same
    blocker set the wakeup engine would park on (via the router's masked
    methods) and counts a wakeup whenever a retired braid frees one of the
    recorded cells, reproducing the wakeup engine's ``wakeups`` counter
    exactly.  Two invariants are asserted along the way — a retry that
    succeeds must coincide with a shadow wakeup (else the wakeup engine
    would have missed it), and the masked router must agree with the
    set-based router on every failure — so a divergence in the parking
    logic fails loudly here rather than silently skewing results.  Pass
    ``track_wakeups=False`` for like-for-like timing of the old engine
    (the result then reports ``wakeups=0``).
    """
    config = config or SimulatorConfig()
    durations = config.durations
    gates, mesh, router, hop_cells, dag = _prepare_simulation(
        circuit_or_gates, placement, config
    )
    n = len(gates)
    if n == 0:
        return _empty_result(placement)

    remaining_preds = [len(p) for p in dag.predecessors]
    ready_time = [0] * n
    ready: List[int] = [i for i in range(n) if remaining_preds[i] == 0]
    ready.sort()

    gate_start: List[int] = [-1] * n
    gate_end: List[int] = [-1] * n
    locked: Set[LatticeCell] = set()
    active: List[Tuple[int, int, FrozenSet[LatticeCell]]] = []
    now = 0
    completed = 0
    stall_events = 0
    stalled_ever: Set[int] = set()
    wakeups = 0

    # Shadow parking state (track_wakeups only): the blocker mask the wakeup
    # engine would have parked each stalled gate on, and the gates whose
    # recorded blockers intersected the cells freed at the current event.
    locked_mask = 0
    shadow: Dict[int, int] = {}
    woken: Set[int] = set()

    total_braid_cells = 0
    braided_gates = 0
    concurrent_braids = 0
    max_concurrent_braids = 0

    def try_route(index: int, gate: Gate) -> Optional[BraidPath]:
        """Attempt to route the braid of ``gate`` avoiding locked cells.

        The live ``locked`` set is passed to the router directly (it only
        reads it); copying it into a frozenset per attempt used to dominate
        retry cost on congested meshes.
        """
        if gate.kind is GateKind.CXX:
            return router.route_star(gate.qubits[0], gate.qubits[1:], locked)
        hop = hop_cells.get(index)
        return router.route_pair(gate.qubits[0], gate.qubits[1], locked, hop=hop)

    def shadow_blockers(index: int, gate: Gate) -> int:
        """The watch mask the wakeup engine would park this gate on."""
        if gate.kind is GateKind.CXX:
            routed, mask = router.route_star_masked(
                gate.qubits[0], gate.qubits[1:], locked_mask
            )
        else:
            routed, mask = router.route_pair_masked(
                gate.qubits[0], gate.qubits[1], locked_mask, hop=hop_cells.get(index)
            )
        if routed:
            raise AssertionError(
                f"engine divergence: the masked router routed gate {index} "
                "that the set-based router stalled"
            )
        return mask

    while completed < n:
        if now > config.max_cycles:
            raise RuntimeError(
                f"simulation exceeded max_cycles={config.max_cycles}"
            )
        # ------------------------------------------------------------------
        # Start every ready gate we can at the current time, in program order.
        # ------------------------------------------------------------------
        still_ready: List[int] = []
        for index in ready:
            gate = gates[index]
            duration = gate.duration(durations)
            if gate.is_braided:
                path = try_route(index, gate)
                if path is None:
                    stall_events += 1
                    stalled_ever.add(index)
                    if track_wakeups and (index not in shadow or index in woken):
                        # First stall, or a woken retry that failed again:
                        # the wakeup engine would (re-)park here.  A parked
                        # gate that was not woken keeps its recorded
                        # blockers, exactly like the wakeup engine.
                        shadow[index] = shadow_blockers(index, gate)
                    still_ready.append(index)
                    continue
                if track_wakeups:
                    if index in shadow and index not in woken:
                        raise AssertionError(
                            f"wakeup invariant violated: gate {index} routed "
                            "although none of its recorded blockers was freed"
                        )
                    shadow.pop(index, None)
                    locked_mask |= mesh.cells_mask(path.cells)
                locked.update(path.cells)
                total_braid_cells += path.length
                braided_gates += 1
                concurrent_braids += 1
                max_concurrent_braids = max(max_concurrent_braids, concurrent_braids)
                cells: FrozenSet[LatticeCell] = path.cells
            else:
                cells = frozenset()
            gate_start[index] = now
            gate_end[index] = now + duration
            heapq.heappush(active, (now + duration, index, cells))
        ready = still_ready
        woken.clear()

        if not active:
            if ready:
                raise RoutingDeadlockError(
                    f"{len(ready)} gates cannot be routed on an otherwise idle mesh"
                )
            break

        # ------------------------------------------------------------------
        # Advance to the next completion event and retire everything there.
        # ------------------------------------------------------------------
        now = active[0][0]
        freed_mask = 0
        while active and active[0][0] == now:
            _, index, cells = heapq.heappop(active)
            if cells:
                locked.difference_update(cells)
                concurrent_braids -= 1
                if track_wakeups:
                    freed_mask |= mesh.cells_mask(cells)
            completed += 1
            for successor in dag.successors[index]:
                remaining_preds[successor] -= 1
                ready_time[successor] = max(ready_time[successor], now)
                if remaining_preds[successor] == 0:
                    ready.append(successor)
        ready.sort()
        if track_wakeups and freed_mask:
            locked_mask &= ~freed_mask
            for index, blockers in shadow.items():
                if blockers & freed_mask:
                    woken.add(index)
            wakeups += len(woken)

    latency = max(gate_end) if gate_end else 0
    stall_cycles = sum(
        max(0, start - ready_at)
        for start, ready_at in zip(gate_start, ready_time)
        if start >= 0
    )
    return SimulationResult(
        latency=latency,
        area=placement.area,
        gate_start=gate_start,
        gate_end=gate_end,
        stall_cycles=stall_cycles,
        stall_events=stall_events,
        braided_gates=braided_gates,
        max_concurrent_braids=max_concurrent_braids,
        total_braid_cells=total_braid_cells,
        distinct_stalls=len(stalled_ever),
        wakeups=wakeups,
    )


def simulate_latency(
    circuit_or_gates, placement: Placement, config: Optional[SimulatorConfig] = None
) -> int:
    """Convenience wrapper returning only the circuit latency in cycles."""
    return simulate(circuit_or_gates, placement, config).latency


# ----------------------------------------------------------------------
# Simulation memoization
# ----------------------------------------------------------------------
#: Content fingerprints of circuits already hashed, keyed weakly by the
#: circuit object so the memo dies with the circuit.  Guarded by the gate
#: count: the evaluation pipeline treats circuits as immutable once built,
#: but a circuit that grew since it was fingerprinted is re-hashed.
_circuit_fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


#: Schema tag salted into every circuit fingerprint.  Content hashes that
#: feed cache keys must be tag-salted (:func:`~repro.persistutil
#: .tagged_fingerprint`) so an encoding change re-addresses old digests
#: instead of colliding with them.
_CIRCUIT_FINGERPRINT_TAG = "repro-msfu-circuit/v1"


def _gates_fingerprint(gates: Sequence[Gate]) -> str:
    """Stable content hash of a gate sequence.

    Hashes exactly the gate properties the simulator depends on (kind and
    qubit operands, in order) via the tag-salted blake2b scheme of
    :func:`~repro.persistutil.tagged_fingerprint`, so the digest is
    identical across processes and interpreter runs — unlike built-in
    ``hash()``, which is randomized per process for strings.
    """
    parts: List[bytes] = []
    for gate in gates:
        parts.append(gate.kind.value.encode())
        parts.append(b"(")
        parts.append(",".join(map(str, gate.qubits)).encode())
        parts.append(b")")
    return tagged_fingerprint(_CIRCUIT_FINGERPRINT_TAG, b"".join(parts), digest_size=16)


def circuit_fingerprint(circuit_or_gates) -> str:
    """Content hash of a circuit (or raw gate sequence) for cache keying.

    :class:`~repro.circuits.circuit.Circuit` instances memoize their digest
    (recomputed if the gate count changed since it was taken).
    """
    if isinstance(circuit_or_gates, Circuit):
        cached = _circuit_fingerprints.get(circuit_or_gates)
        if cached is not None and cached[0] == len(circuit_or_gates):
            return cached[1]
        digest = _gates_fingerprint(circuit_or_gates.gates)
        _circuit_fingerprints[circuit_or_gates] = (len(circuit_or_gates), digest)
        return digest
    return _gates_fingerprint(tuple(circuit_or_gates))


def _placement_key(placement: Placement) -> Tuple:
    """Hashable placement identity for cache keys.

    Delegates to :meth:`~repro.mapping.placement.Placement.fingerprint`,
    which memoizes the sorted-positions tuple on the placement itself —
    hot sweeps probe the :class:`SimulationCache` with the same placement
    object many times, and re-sorting ``positions.items()`` per probe was
    O(n log n) pure overhead.
    """
    return placement.fingerprint()


def _config_key(config: SimulatorConfig) -> Tuple:
    """Hashable key covering *every* :class:`SimulatorConfig` field.

    Derived from ``dataclasses.fields`` so a future config knob is included
    automatically (an unhashable new field fails loudly here rather than
    silently aliasing distinct configs in the cache); only the two mapping
    fields need explicit normalization.
    """
    key = []
    for f in dataclasses.fields(SimulatorConfig):
        value = getattr(config, f.name)
        if f.name == "durations":
            value = tuple(sorted((kind.value, int(v)) for kind, v in value.items()))
        elif f.name == "hops":
            value = tuple(sorted((index, tuple(cell)) for index, cell in value.items()))
        key.append((f.name, value))
    return tuple(key)


def simulation_cache_key(
    circuit_or_gates,
    placement: Placement,
    config: Optional[SimulatorConfig] = None,
) -> Tuple:
    """The memoization key for one simulation: (circuit hash, placement, config).

    Two simulations with equal keys are guaranteed to produce equal results
    (the simulator is deterministic), which is what makes
    :class:`SimulationCache` a pure optimization.
    """
    return (
        circuit_fingerprint(circuit_or_gates),
        _placement_key(placement),
        _config_key(config or SimulatorConfig()),
    )


class SimulationCache:
    """LRU memo of :class:`SimulationResult`s keyed by (circuit, placement, config).

    Sweeps frequently revisit the same simulation point — the same factory
    under the same mapping appears in multiple figures, in reuse/no-reuse
    comparisons, and in repeated CLI runs within one process.  Routing
    through a cache makes every repeat free.  Cached results must be treated
    as read-only (they are shared between hits).

    The cache is bounded (``max_entries``, LRU eviction) because results
    hold per-gate timing lists.  ``hits`` / ``misses`` counters make cache
    accounting exact for benchmarking.

    The memo lives in process memory only; results that must outlive the
    process go through :class:`~repro.api.store.ResultStore`.
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, SimulationResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached result (counters kept)."""
        self._entries.clear()

    def simulate(
        self,
        circuit_or_gates,
        placement: Placement,
        config: Optional[SimulatorConfig] = None,
    ) -> SimulationResult:
        """Memoized :func:`simulate` — repeated sweep points never re-simulate."""
        if not isinstance(circuit_or_gates, Circuit):
            # Materialize one-shot iterables up front: fingerprinting reads
            # the gates once and the simulation must read the same gates.
            circuit_or_gates = tuple(circuit_or_gates)
        key = simulation_cache_key(circuit_or_gates, placement, config)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return cached
        result = simulate(circuit_or_gates, placement, config)
        self.misses += 1
        self._insert(key, result)
        return result

    def simulate_many(
        self,
        points: Sequence[Tuple[object, Placement, Optional[SimulatorConfig]]],
    ) -> List[SimulationResult]:
        """Memoized :func:`~repro.routing.batchsim.simulate_batch`.

        Same results and the same ``hits`` / ``misses`` booking as
        ``[self.simulate(*point) for point in points]``: a point already
        cached, or repeated earlier in ``points``, is a hit; every other
        point is a miss, and all misses run in one ``simulate_batch`` call.
        """
        # Looked up at call time, not imported by name: batchsim imports
        # this module, and tracers wrap ``batchsim.simulate_batch``.
        from . import batchsim

        keys: List[Tuple] = []
        results: List[Optional[SimulationResult]] = [None] * len(points)
        batch_index: Dict[Tuple, int] = {}
        batch: List[Tuple[object, Placement, Optional[SimulatorConfig]]] = []
        for position, (circuit_or_gates, placement, config) in enumerate(points):
            if not isinstance(circuit_or_gates, Circuit):
                circuit_or_gates = tuple(circuit_or_gates)
            key = simulation_cache_key(circuit_or_gates, placement, config)
            keys.append(key)
            if key in batch_index:
                continue
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                results[position] = cached
                continue
            batch_index[key] = len(batch)
            batch.append((circuit_or_gates, placement, config))
        if not batch:
            return results  # type: ignore[return-value]
        computed = batchsim.simulate_batch(batch)
        for position, key in enumerate(keys):
            if results[position] is not None:
                continue
            results[position] = computed[batch_index[key]]
            if key in self._entries:  # a repeat of a point inserted above
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
                self._insert(key, results[position])
        return results  # type: ignore[return-value]

    def _insert(self, key: Tuple, result: SimulationResult) -> None:
        self._entries[key] = result
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
