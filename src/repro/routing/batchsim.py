"""Batched braid simulation: K sweep points through one compiled kernel.

A capacity sweep simulates the *same circuit* under many placements and
configs.  :func:`simulate_batch` exploits that: it groups requests by
circuit, shares the per-circuit preparation (dependency DAG, gate
metadata) and the per-endpoint-pair route plans across the whole group,
and runs every point's event loop in the compiled C kernel
(:mod:`repro.routing.kernel`) over those shared tables.

Occupancy representation
------------------------
Every route candidate the router can produce is an L-shaped path: one
horizontal segment, one vertical segment, and the two endpoint cells.
The kernel therefore keeps a point's ``locked`` occupancy in a *dual*
row/column bitboard — one ``uint64`` word per lattice row (bit = column)
concatenated with one word per lattice column (bit = row) — so a
candidate's conflict test collapses to exactly four word probes: the
horizontal segment against its row word, the vertical segment against
its column word, and one bit per endpoint.  This requires lattice
dimensions ≤ 64 in both axes; larger meshes fall back to the scalar
engine per point.

All candidate rows of a group live in one master matrix, one block per
endpoint-pair plan, bracketed by zero guard rows, with parallel
per-candidate probe tables.

Exactness contract
------------------
Per-point results are **byte-identical** (``SimulationResult.to_dict()``
equality) to :func:`repro.routing.simulator.simulate` and
:func:`repro.routing.simulator.simulate_reference` at any batch size and
any grouping: same candidate order and truncation, same
one-lowest-blocking-cell-per-candidate watch masks (cells are compared
row-major, and the padded 64-bit row stride preserves that order), the
same wake rule, and the same legacy ``scan`` clock behind
``stall_events``.  Points whose config needs the router's special paths
(hop/Valiant routes, BFS detours, or a star leg with coincident
endpoints) fall back to the scalar engine per point — exact by
construction, just not batched.

Engine selection
----------------
``simulate_batch`` runs the compiled kernel when it loads; otherwise it
simulates each request with the per-point
:func:`~repro.routing.simulator.simulate` (the fallback *is* the oracle,
so a host without a C compiler loses speed, never correctness).  Force a
path with ``engine="compiled"`` / ``"scalar"`` — the differential fuzz
harness pins both against the reference engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..circuits.gates import GateKind
from ..mapping.placement import Placement
from . import kernel as _kernel
from .mesh import LatticeCell, Mesh
from .simulator import (
    RoutingDeadlockError,
    SimulationResult,
    SimulatorConfig,
    _empty_result,
    _gate_list,
    circuit_fingerprint,
    simulate,
)

__all__ = ["simulate_batch", "kernel_available", "BatchPoint"]

#: One batch request: (circuit_or_gates, placement, config-or-None).
BatchPoint = Tuple[object, Placement, Optional[SimulatorConfig]]

#: Gate kinds in the flat ``kind`` array.
_KIND_PLAIN = 0   # non-braided: always issues
_KIND_PAIR = 1    # simple two-endpoint braid: candidate block in the matrix
_KIND_STAR = 2    # CXX star: per-leg candidate blocks + a control-cell row

#: Zero guard rows at the head and tail of the master matrix.  Row 0 is
#: the canonical "no candidate" row (padding star legs point at it).
_GUARD_ROWS = 8

#: Both lattice dimensions must fit one uint64 word for the dual
#: row/column occupancy representation.
_MAX_DIM = 64


# ----------------------------------------------------------------------
# Shared route plans
# ----------------------------------------------------------------------
_REP64 = [0]  # _REP64[L] = sum(2 ** (64 * i) for i in range(L))


def _rep64(length: int) -> int:
    while len(_REP64) <= length:
        _REP64.append((_REP64[-1] << 64) | 1)
    return _REP64[length]


class _Candidate:
    """One L-shaped route candidate in the dual padded representation.

    ``rbytes`` is the little-endian serialization of the padded row-major
    mask (cell (r, c) -> bit ``r * 64 + c``, ``group_height`` words);
    ``cbytes`` is its column-major transpose (bit ``c * 64 + r``,
    ``group_width`` words); ``probes`` is the 4-probe conflict test:
    (word offset into a point's dual bitboard, word mask).
    """

    __slots__ = ("rbytes", "cbytes", "probes")

    def __init__(self, rbytes: bytes, cbytes: bytes,
                 probes: Tuple[Tuple[int, int], ...]):
        self.rbytes = rbytes
        self.cbytes = cbytes
        self.probes = probes


class _PairPlan:
    """Untruncated candidates for one endpoint pair on one mesh size.

    The candidate shapes depend only on the lattice dimensions and the two
    endpoint cells — never on the locked set, the placement's other tiles,
    or ``max_candidates`` — so one plan serves every point of a batch whose
    mesh has the same dimensions, across all configs.  Slicing the first
    ``max_candidates`` reproduces the router's truncated plan exactly (its
    generation-order dedup stops appending at the limit, which equals
    truncating the full dedup'd sequence).

    ``packed`` is the candidates' master-matrix block verbatim: ``count``
    dual-representation rows, little-endian, the row words then the
    column words.  ``probe_arr`` is the matching ``(count * 4, 2)``
    uint64 (offset, mask) probe table.
    """

    __slots__ = ("count", "block", "packed", "probe_arr")

    def __init__(self, count: int, packed: bytes, probe_arr):
        self.count = count
        self.block = -1  # row offset in the group's master candidate matrix
        self.packed = packed
        self.probe_arr = probe_arr


def _plan_from_candidates(candidates: List[_Candidate]) -> _PairPlan:
    packed = b"".join(
        part
        for candidate in candidates
        for part in (candidate.rbytes, candidate.cbytes)
    )
    probe_arr = _np.asarray(
        [probe for candidate in candidates for probe in candidate.probes],
        dtype="<u8",
    ).reshape(len(candidates) * 4, 2)
    return _PairPlan(len(candidates), packed, probe_arr)


def _pair_candidate(endpoints, hrow: int, hcols, vcol: int, vrows,
                    height: int, width: int) -> _Candidate:
    (sr, sc), (tr, tc) = endpoints
    ha, hb = hcols if hcols[0] <= hcols[1] else (hcols[1], hcols[0])
    va, vb = vrows if vrows[0] <= vrows[1] else (vrows[1], vrows[0])
    hmask = ((1 << (hb - ha + 1)) - 1) << ha   # bits are columns
    vmask = ((1 << (vb - va + 1)) - 1) << va   # bits are rows
    rbig = (
        (1 << (sr * 64 + sc))
        | (1 << (tr * 64 + tc))
        | (hmask << (hrow * 64))
        | (_rep64(vb - va + 1) << (va * 64 + vcol))
    )
    cbig = (
        (1 << (sc * 64 + sr))
        | (1 << (tc * 64 + tr))
        | (vmask << (vcol * 64))
        | (_rep64(hb - ha + 1) << (ha * 64 + hrow))
    )
    probes = (
        (sr, 1 << sc),
        (tr, 1 << tc),
        (hrow, hmask),
        (height + vcol, vmask),
    )
    return _Candidate(
        rbig.to_bytes(height * 8, "little"),
        cbig.to_bytes(width * 8, "little"),
        probes,
    )


def _build_pair_plan(mesh: Mesh, source: LatticeCell, target: LatticeCell,
                     height: int, width: int) -> _PairPlan:
    """Full (untruncated) twin of ``BraidRouter._mask_plan``.

    Same channel enumeration and generation-order dedup; candidates are
    composed from their segment geometry instead of dense cell masks.
    """
    endpoints = (source, target)
    (sr, sc), (tr, tc) = endpoints
    max_row = mesh.lattice_height - 1
    max_col = mesh.lattice_width - 1
    candidates: List[_Candidate] = []
    seen: Dict[bytes, bool] = {}
    for channel_row in (sr - 1, min(sr + 1, max_row)):
        for channel_col in (tc - 1, min(tc + 1, max_col)):
            candidate = _pair_candidate(
                endpoints,
                channel_row, (sc, channel_col),
                channel_col, (channel_row, tr),
                height, width,
            )
            if candidate.rbytes not in seen:
                seen[candidate.rbytes] = True
                candidates.append(candidate)
    for channel_col in (sc - 1, min(sc + 1, max_col)):
        for channel_row in (tr - 1, min(tr + 1, max_row)):
            candidate = _pair_candidate(
                endpoints,
                channel_row, (channel_col, tc),
                channel_col, (sr, channel_row),
                height, width,
            )
            if candidate.rbytes not in seen:
                seen[candidate.rbytes] = True
                candidates.append(candidate)
    return _plan_from_candidates(candidates)


class _PlanCache:
    """Per-group cache of :class:`_PairPlan` keyed by (dims, source, target).

    Plan geometry is generated by the kernel's C ``build_pair_plan``
    (byte-identical rows and probes — pinned by ``test_simulator_batch``'s
    builder-parity test).  Pairs touching the padding frame, and caches
    built without a kernel, use the pure-Python big-int composition above.
    """

    __slots__ = ("_plans", "_height", "_width", "_kernel", "_rows_buf",
                 "_poff_buf", "_pmask_buf")

    def __init__(self, height: int, width: int, kernel=None) -> None:
        self._plans: Dict[Tuple, _PairPlan] = {}
        self._height = height
        self._width = width
        self._kernel = kernel
        if kernel is not None:
            span = height + width
            self._rows_buf = _np.zeros((8, span), dtype="<u8")
            self._poff_buf = _np.zeros((8, 4), dtype=_np.int64)
            self._pmask_buf = _np.zeros((8, 4), dtype="<u8")

    def _pair_compiled(self, mesh: Mesh, source: LatticeCell,
                       target: LatticeCell) -> _PairPlan:
        (sr, sc), (tr, tc) = source, target
        kept = self._kernel.build_pair_plan(
            sr, sc, tr, tc,
            mesh.lattice_height - 1, mesh.lattice_width - 1,
            self._height, self._width,
            self._rows_buf, self._poff_buf, self._pmask_buf,
        )
        probe_arr = _np.empty((kept * 4, 2), dtype="<u8")
        probe_arr[:, 0] = self._poff_buf[:kept].reshape(-1)
        probe_arr[:, 1] = self._pmask_buf[:kept].reshape(-1)
        return _PairPlan(kept, self._rows_buf[:kept].tobytes(), probe_arr)

    def prefetch(self, mesh: Mesh, pairs) -> None:
        """Build every uncached plan of ``pairs`` in one kernel call.

        Per-pair ctypes round trips dominate plan building for large
        circuits, so the batched engine pre-resolves a placement's whole
        pair set through the kernel's bulk ``build_pair_plans`` and keeps
        ndarray views into the bulk buffers (no per-pair copies).  Pairs
        already cached, touching the padding frame (a coordinate < 1), or
        rejected by the kernel (kept < 0) are left for :meth:`pair`.
        No-op without a kernel.
        """
        kern = self._kernel
        if kern is None:
            return
        width_cells = mesh.lattice_width
        height_cells = mesh.lattice_height
        wanted = []
        queued = set()
        for source, target in pairs:
            key = (width_cells, height_cells, source, target)
            if key in self._plans or key in queued:
                continue
            if source == target:  # degenerate star leg: point goes scalar
                continue
            if min(source[0], source[1], target[0], target[1]) < 1:
                continue
            queued.add(key)
            wanted.append((key, source, target))
        if not wanted:
            return
        m = len(wanted)
        span = self._height + self._width
        coords = _np.empty((m, 4), dtype=_np.int64)
        for i, (_, (sr, sc), (tr, tc)) in enumerate(wanted):
            coords[i, 0] = sr
            coords[i, 1] = sc
            coords[i, 2] = tr
            coords[i, 3] = tc
        # np.empty, not zeros: the kernel fully writes every kept row and
        # its 4 probes, and slots beyond kept[i] are never read (callers
        # slice ``[:kept]``), so the zero-fill would be pure overhead.
        rows = _np.empty((m, 8, span), dtype="<u8")
        poff = _np.empty((m, 8, 4), dtype=_np.int64)
        pmask = _np.empty((m, 8, 4), dtype="<u8")
        kept = _np.empty(m, dtype=_np.int64)
        kern.build_pair_plans(
            coords, m, height_cells - 1, width_cells - 1,
            self._height, self._width, rows, poff, pmask, kept,
        )
        probes = _np.empty((m, 8, 4, 2), dtype="<u8")
        probes[..., 0] = poff  # non-negative offsets: safe int64 -> uint64
        probes[..., 1] = pmask
        for i, (key, _, _) in enumerate(wanted):
            k = int(kept[i])
            if k < 0:
                continue
            self._plans[key] = _PairPlan(
                k, rows[i, :k], probes[i, :k].reshape(k * 4, 2)
            )

    def pair(self, mesh: Mesh, source: LatticeCell, target: LatticeCell) -> _PairPlan:
        key = (mesh.lattice_width, mesh.lattice_height, source, target)
        plan = self._plans.get(key)
        if plan is None:
            if self._kernel is not None and min(
                source[0], source[1], target[0], target[1]
            ) >= 1:
                plan = self._pair_compiled(mesh, source, target)
            else:
                plan = _build_pair_plan(
                    mesh, source, target, self._height, self._width
                )
            self._plans[key] = plan
        return plan


# ----------------------------------------------------------------------
# Group preparation
# ----------------------------------------------------------------------
class _Shared:
    """Per-circuit state shared by every point of a group."""

    __slots__ = (
        "n",
        "qubits",
        "braided",
        "is_star",
        "max_legs",
        "succ_flat",
        "succ_off",
        "pred_count",
        "used_qubits",
    )

    def __init__(self, gates) -> None:
        from ..circuits.dag import build_dependency_dag

        n = len(gates)
        self.n = n
        self.qubits = [gate.qubits for gate in gates]
        self.braided = [gate.is_braided for gate in gates]
        self.is_star = [gate.kind is GateKind.CXX for gate in gates]
        self.max_legs = max(
            (len(q) - 1 for q, star in zip(self.qubits, self.is_star) if star),
            default=0,
        )
        dag = build_dependency_dag(gates)
        succ_flat: List[int] = []
        succ_off: List[int] = [0]
        for successors in dag.successors:
            succ_flat.extend(successors)
            succ_off.append(len(succ_flat))
        self.succ_flat = _np.asarray(succ_flat, dtype=_np.int64)
        self.succ_off = _np.asarray(succ_off, dtype=_np.int64)
        self.pred_count = [len(p) for p in dag.predecessors]
        used: set = set()
        for gate in gates:
            used.update(gate.qubits)
        self.used_qubits = used


def _validate_placement(shared: _Shared, placement: Placement) -> None:
    """Same check (and message) as ``simulator._prepare_simulation``."""
    missing = [q for q in shared.used_qubits if q not in placement.positions]
    if missing:
        raise ValueError(
            f"{len(missing)} qubits used by the circuit are not placed "
            f"(first few: {sorted(missing)[:5]})"
        )


class _MatrixBuilder:
    """Accumulates candidate rows (dual representation + probe tables).

    The matrix opens and closes with :data:`_GUARD_ROWS` zero rows so that
    padding entries (absent star legs) can safely read a zero candidate
    without branching.
    """

    __slots__ = ("height", "width", "span", "blocks", "probe_parts", "rows")

    def __init__(self, height: int, width: int) -> None:
        self.height = height
        self.width = width
        self.span = height + width
        self.blocks: List[bytes] = [bytes(_GUARD_ROWS * self.span * 8)]
        self.probe_parts: List[object] = [
            _np.zeros((_GUARD_ROWS * 4, 2), dtype="<u8")
        ]
        self.rows = _GUARD_ROWS

    def register(self, plan: _PairPlan) -> int:
        if plan.block < 0:
            self.blocks.append(plan.packed)
            self.probe_parts.append(plan.probe_arr)
            plan.block = self.rows
            self.rows += plan.count
        return plan.block

    def register_cell(self, row: int, col: int) -> int:
        """A single-cell row (star control cells); never probed."""
        self.blocks.append((1 << (row * 64 + col)).to_bytes(self.height * 8, "little"))
        self.blocks.append((1 << (col * 64 + row)).to_bytes(self.width * 8, "little"))
        self.probe_parts.append(_np.zeros((4, 2), dtype="<u8"))
        index = self.rows
        self.rows += 1
        return index

    def finish(self):
        self.blocks.append(bytes(_GUARD_ROWS * self.span * 8))
        self.probe_parts.append(_np.zeros((_GUARD_ROWS * 4, 2), dtype="<u8"))
        total = self.rows + _GUARD_ROWS
        # frombuffer gives a readonly view over the joined bytes — fine,
        # the master matrix is only ever gathered from, never written.
        matrix = _np.frombuffer(b"".join(self.blocks), dtype="<u8").reshape(
            total, self.span
        )
        flat = _np.concatenate(self.probe_parts)
        probe_off = flat[:, 0].astype(_np.int64).reshape(total, 4)
        probe_mask = _np.ascontiguousarray(flat[:, 1]).reshape(total, 4)
        return matrix, probe_off, probe_mask


class _PlacementPlans:
    """Per-(circuit, placement) route-plan resolution, shared across configs.

    ``kind``/``block``/``length`` are per-gate arrays describing how to
    attempt each gate; star gates additionally get per-leg candidate
    blocks (``star_start``/``star_len``) and a control-cell row
    (``star_ctrl``).  ``degenerate`` marks a star with a leg whose endpoints
    coincide — the router's source==target special case — which sends the
    whole point down the scalar fallback.
    """

    __slots__ = (
        "kind",
        "block",
        "length",
        "star_start",
        "star_len",
        "star_ctrl",
        "degenerate",
    )

    def __init__(self, shared: _Shared, mesh: Mesh, plans: _PlanCache,
                 matrix: _MatrixBuilder) -> None:
        n = shared.n
        max_legs = shared.max_legs
        qubit_cell = mesh.qubit_cells
        kind = [0] * n
        block = [0] * n
        length = [0] * n
        self.degenerate = False
        star_start = star_len = star_ctrl = None
        if max_legs:
            star_start = _np.zeros((n, max_legs), dtype=_np.int64)
            star_len = _np.zeros((n, max_legs), dtype=_np.int64)
            star_ctrl = _np.zeros(n, dtype=_np.int64)
        wanted = []
        seen_pairs = set()
        for gate in range(n):
            if not shared.braided[gate]:
                continue
            qubits = shared.qubits[gate]
            if shared.is_star[gate]:
                control_cell = qubit_cell[qubits[0]]
                endpoint_pairs = [
                    (control_cell, qubit_cell[target]) for target in qubits[1:]
                ]
            else:
                endpoint_pairs = [(qubit_cell[qubits[0]], qubit_cell[qubits[1]])]
            for endpoints in endpoint_pairs:
                if endpoints not in seen_pairs:
                    seen_pairs.add(endpoints)
                    wanted.append(endpoints)
        plans.prefetch(mesh, wanted)
        for gate in range(n):
            if not shared.braided[gate]:
                continue
            qubits = shared.qubits[gate]
            if shared.is_star[gate]:
                control_cell = qubit_cell[qubits[0]]
                legs = []
                for target in qubits[1:]:
                    target_cell = qubit_cell[target]
                    if target_cell == control_cell:
                        self.degenerate = True
                        return
                    legs.append(plans.pair(mesh, control_cell, target_cell))
                kind[gate] = _KIND_STAR
                for leg_index, leg in enumerate(legs):
                    star_start[gate, leg_index] = matrix.register(leg)
                    star_len[gate, leg_index] = leg.count
                row, col = control_cell
                star_ctrl[gate] = matrix.register_cell(row, col)
            else:
                plan = plans.pair(
                    mesh, qubit_cell[qubits[0]], qubit_cell[qubits[1]]
                )
                kind[gate] = _KIND_PAIR
                block[gate] = matrix.register(plan)
                length[gate] = plan.count
        self.kind = _np.asarray(kind, dtype=_np.int64)
        self.block = _np.asarray(block, dtype=_np.int64)
        self.length = _np.asarray(length, dtype=_np.int64)
        self.star_start = star_start
        self.star_len = star_len
        self.star_ctrl = star_ctrl


class _Point:
    """One batched simulation point: its config, placement and plans."""

    __slots__ = ("config", "placement", "mc", "plans")

    def __init__(self, config: SimulatorConfig, placement: Placement,
                 plans: _PlacementPlans) -> None:
        self.config = config
        self.placement = placement
        self.mc = max(1, config.max_candidates)
        self.plans = plans


# ----------------------------------------------------------------------
# The compiled kernel path
# ----------------------------------------------------------------------
def _row_popcounts(matrix, height: int):
    """Popcount of each row's row-major part (cells, not column mirrors)."""
    if hasattr(_np, "bitwise_count"):
        return _np.bitwise_count(matrix[:, :height]).sum(
            axis=1, dtype=_np.int64
        )
    return _np.asarray(  # pragma: no cover - numpy < 2.0
        [
            int.from_bytes(row[:height].tobytes(), "little").bit_count()
            for row in matrix
        ],
        dtype=_np.int64,
    )


def _run_kernel_group(kern, shared: _Shared, points: List[_Point],
                      matrix: _MatrixBuilder,
                      durations: List[List[int]]) -> List[SimulationResult]:
    """Run a group's points through the compiled per-point event loop.

    The group preparation (master candidate matrix, probe tables, plan
    dedup) is shared by every point; each point's event loop then runs in
    C over the same tables.
    """
    M, probe_off, probe_mask = matrix.finish()
    height = matrix.height
    span = matrix.span
    pops = _row_popcounts(M, height)
    n = shared.n
    pred = _np.asarray(shared.pred_count, dtype=_np.int64)
    dummy = _np.zeros(1, dtype=_np.int64)
    results: List[SimulationResult] = []
    for point, dur_list in zip(points, durations):
        plans = point.plans
        count = _np.minimum(plans.length, point.mc)
        if shared.max_legs:
            star_start = plans.star_start
            star_count = _np.minimum(plans.star_len, point.mc)
            star_ctrl = plans.star_ctrl
        else:
            star_start = star_count = star_ctrl = dummy
        dur = _np.asarray(dur_list, dtype=_np.int64)
        gate_start = _np.empty(n, dtype=_np.int64)
        gate_end = _np.empty(n, dtype=_np.int64)
        ready = _np.empty(n, dtype=_np.int64)
        counters = _np.zeros(_kernel.COUNTER_SLOTS, dtype=_np.int64)
        code = kern.simulate_point(
            n, plans.kind, dur, plans.block, count, shared.max_legs,
            star_start, star_count, star_ctrl,
            shared.succ_flat, shared.succ_off, pred,
            M, probe_off, probe_mask, pops,
            span, height, point.config.max_cycles,
            gate_start, gate_end, ready, counters,
        )
        if code == _kernel.MAX_CYCLES_EXCEEDED:
            raise RuntimeError(
                f"simulation exceeded max_cycles={point.config.max_cycles}"
            )
        if code == _kernel.DEADLOCK:
            raise RoutingDeadlockError(
                f"{int(counters[0])} gates cannot be routed on an "
                f"otherwise idle mesh"
            )
        if code != _kernel.OK:  # pragma: no cover - allocation failure
            raise RuntimeError(f"batchsim kernel failed with code {code}")
        results.append(SimulationResult(
            latency=int(counters[8]),
            area=point.placement.area,
            gate_start=gate_start.tolist(),
            gate_end=gate_end.tolist(),
            stall_cycles=int(counters[7]),
            stall_events=int(counters[1]),
            braided_gates=int(counters[2]),
            max_concurrent_braids=int(counters[3]),
            total_braid_cells=int(counters[4]),
            distinct_stalls=int(counters[5]),
            wakeups=int(counters[6]),
        ))
    return results


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def _needs_scalar_config(config: SimulatorConfig) -> bool:
    """Configs whose routes take the router's special paths."""
    return config.allow_detour or bool(config.hops)


def kernel_available() -> bool:
    """Whether the compiled kernel engine can run in this environment."""
    return _kernel.available()


def simulate_batch(
    requests: Sequence[BatchPoint],
    engine: str = "auto",
) -> List[SimulationResult]:
    """Simulate many (circuit, placement, config) points, batched.

    ``requests`` is a sequence of ``(circuit_or_gates, placement, config)``
    triples (``config`` may be ``None`` for the default).  Requests are
    grouped by circuit content; each group's batchable points share the
    circuit preparation and route plans and run through the compiled
    kernel.  Results come back in request order and are byte-identical to
    per-request :func:`~repro.routing.simulator.simulate` calls.

    ``engine`` selects the path: ``"auto"`` (compiled kernel when it
    loads, else per-request ``simulate``), ``"compiled"`` (require the C
    kernel, raise :class:`RuntimeError` when it cannot be built), or
    ``"scalar"`` (always per-request ``simulate``).
    """
    if engine not in ("auto", "compiled", "scalar"):
        raise ValueError(f"unknown batch engine {engine!r}")
    kern = _kernel.load() if engine != "scalar" else None
    if engine == "compiled" and kern is None:
        raise RuntimeError(
            "engine='compiled' requires a working C compiler to build "
            "the simulator kernel"
        )

    normalized: List[Tuple[object, Placement, SimulatorConfig]] = []
    for request in requests:
        circuit_or_gates, placement, config = request
        normalized.append(
            (circuit_or_gates, placement, config or SimulatorConfig())
        )

    if kern is None:
        return [
            simulate(circ, placement, config)
            for circ, placement, config in normalized
        ]

    results: List[Optional[SimulationResult]] = [None] * len(normalized)
    # Group same-circuit requests; keep gate tuples so one-shot iterables
    # are read exactly once.  Sweeps typically pass the same circuit (or
    # gate tuple) object for every point, so memoize the content
    # fingerprint by object identity.
    groups: Dict[str, List[int]] = {}
    gate_lists: List[tuple] = []
    fp_by_id: Dict[int, str] = {}
    for index, (circ, _placement, _config) in enumerate(normalized):
        gates = _gate_list(circ)
        gate_lists.append(gates)
        fingerprint = fp_by_id.get(id(gates))
        if fingerprint is None:
            fingerprint = circuit_fingerprint(gates)
            fp_by_id[id(gates)] = fingerprint
        groups.setdefault(fingerprint, []).append(index)

    mesh_cache: Dict[tuple, Mesh] = {}
    for indices in groups.values():
        gates = gate_lists[indices[0]]
        if len(gates) == 0:
            for index in indices:
                results[index] = _empty_result(normalized[index][1])
            continue
        shared = _Shared(gates)
        height = width = 0
        meshes: Dict[tuple, Mesh] = {}
        oversized: set = set()
        for index in indices:
            placement = normalized[index][1]
            _validate_placement(shared, placement)
            mesh_key = placement.fingerprint()
            mesh = mesh_cache.get(mesh_key)
            if mesh is None:
                mesh = Mesh.from_placement(
                    placement.positions,
                    width=placement.width,
                    height=placement.height,
                )
                mesh_cache[mesh_key] = mesh
            meshes[mesh_key] = mesh
            if mesh.lattice_height > _MAX_DIM or mesh.lattice_width > _MAX_DIM:
                oversized.add(mesh_key)
            else:
                height = max(height, mesh.lattice_height)
                width = max(width, mesh.lattice_width)

        matrix = _MatrixBuilder(height, width)
        # Plans carry their master-matrix block offset, which is per-group
        # state, so the plan cache cannot outlive the group.
        plans = _PlanCache(height, width, kernel=kern)
        placement_plans: Dict[tuple, _PlacementPlans] = {}
        duration_cache: Dict[tuple, List[int]] = {}
        points: List[_Point] = []
        durations: List[List[int]] = []
        batch_order: List[int] = []
        for index in indices:
            _circ, placement, config = normalized[index]
            mesh_key = placement.fingerprint()
            if mesh_key in oversized or _needs_scalar_config(config):
                results[index] = simulate(gates, placement, config)
                continue
            resolved = placement_plans.get(mesh_key)
            if resolved is None:
                resolved = _PlacementPlans(shared, meshes[mesh_key], plans, matrix)
                placement_plans[mesh_key] = resolved
            if resolved.degenerate:
                results[index] = simulate(gates, placement, config)
                continue
            duration_key = tuple(
                sorted((kind.value, int(v)) for kind, v in config.durations.items())
            )
            point_durations = duration_cache.get(duration_key)
            if point_durations is None:
                point_durations = [gate.duration(config.durations) for gate in gates]
                duration_cache[duration_key] = point_durations
            points.append(_Point(config, placement, resolved))
            durations.append(point_durations)
            batch_order.append(index)

        if points:
            group_results = _run_kernel_group(
                kern, shared, points, matrix, durations
            )
            for index, result in zip(batch_order, group_results):
                results[index] = result
    return results  # type: ignore[return-value]
