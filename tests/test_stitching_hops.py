"""Differential tests of the batched permutation-hop annealer.

``optimize_permutation_hops`` scores every candidate hop of a braid in one
numpy call.  The scalar loop it replaced is kept below, verbatim, as the
oracle: on small generated placements and braid sets -- 1xN and Nx1 grids,
hops on braid endpoints (zero-length segments), collinear overlapping
braids, braids sharing endpoint coordinates -- both must return identical
hop maps, and one candidate's vectorised crossing count must equal the sum
of :func:`segments_intersect` over the same segment pairs.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits.gates import Gate, GateKind
from repro.graphs.metrics import segments_intersect, segments_intersect_array
from repro.mapping.placement import Cell, Placement
from repro.mapping.stitching import (
    StitchingConfig,
    _free_cells,
    _hop_costs,
    optimize_permutation_hops,
    permutation_gate_indices,
)


# ----------------------------------------------------------------------
# Oracle: the scalar annealing loop, copied verbatim from the previous
# implementation (only the entry point is renamed).
# ----------------------------------------------------------------------
def _hop_congestion(
    segments: Dict[int, List[Tuple[Tuple[float, float], Tuple[float, float]]]],
    index: int,
) -> float:
    """Crossing count of one braid's polyline against all other braids'."""
    crossings = 0.0
    mine = segments[index]
    for other_index, other_segments in segments.items():
        if other_index == index:
            continue
        for a1, a2 in mine:
            for b1, b2 in other_segments:
                if segments_intersect(a1, a2, b1, b2):
                    crossings += 1.0
    return crossings


def _segments_for(
    source: Cell, target: Cell, hop: Optional[Cell]
) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    src = (float(source[0]), float(source[1]))
    dst = (float(target[0]), float(target[1]))
    if hop is None:
        return [(src, dst)]
    mid = (float(hop[0]), float(hop[1]))
    return [(src, mid), (mid, dst)]


def scalar_optimize_permutation_hops(
    factory,
    placement: Placement,
    config: Optional[StitchingConfig] = None,
) -> Dict[int, Cell]:
    config = config or StitchingConfig()
    indices = permutation_gate_indices(factory)
    if not indices or config.hop_mode == "none":
        return {}

    rng = random.Random(config.seed)
    free = _free_cells(placement)
    hops: Dict[int, Cell] = {}
    endpoints: Dict[int, Tuple[Cell, Cell]] = {}
    for index in indices:
        gate = factory.circuit[index]
        source = placement.positions[gate.qubits[0]]
        target = placement.positions[gate.qubits[1]]
        endpoints[index] = (source, target)
        if config.hop_mode == "random" or config.hop_mode == "annealed_random":
            hops[index] = free[rng.randrange(len(free))]
        else:  # midpoint-based
            hops[index] = (
                (source[0] + target[0]) // 2,
                (source[1] + target[1]) // 2,
            )

    if config.hop_mode == "random":
        return hops

    # Annealing: locally move each hop to reduce crossings + detour length.
    segments = {
        index: _segments_for(endpoints[index][0], endpoints[index][1], hops[index])
        for index in indices
    }

    def hop_cost(index: int, hop: Cell) -> float:
        source, target = endpoints[index]
        detour = (
            abs(source[0] - hop[0])
            + abs(source[1] - hop[1])
            + abs(hop[0] - target[0])
            + abs(hop[1] - target[1])
            - abs(source[0] - target[0])
            - abs(source[1] - target[1])
        )
        segments[index] = _segments_for(source, target, hop)
        crossings = _hop_congestion(segments, index)
        return 4.0 * crossings + 0.5 * detour

    for _sweep in range(config.hop_sweeps):
        order = list(indices)
        rng.shuffle(order)
        for index in order:
            current = hops[index]
            current_cost = hop_cost(index, current)
            best_hop = current
            best_cost = current_cost
            candidates = [
                (current[0] + dr, current[1] + dc)
                for dr in (-2, -1, 0, 1, 2)
                for dc in (-2, -1, 0, 1, 2)
                if (dr, dc) != (0, 0)
            ]
            candidates.append(free[rng.randrange(len(free))])
            for candidate in candidates:
                if not (
                    0 <= candidate[0] < placement.height
                    and 0 <= candidate[1] < placement.width
                ):
                    continue
                cost = hop_cost(index, candidate)
                if cost < best_cost:
                    best_cost = cost
                    best_hop = candidate
            hops[index] = best_hop
            segments[index] = _segments_for(
                endpoints[index][0], endpoints[index][1], best_hop
            )
    return hops


# ----------------------------------------------------------------------
# Generated permutation-braid instances
# ----------------------------------------------------------------------
@st.composite
def braid_instances(draw):
    """A placement plus a stub factory whose every gate is a permutation braid.

    Grids are at most 6x6 and often a single row or column, so collinear
    overlaps and hops landing on braid endpoints are common; braids may
    share qubits, hence endpoint coordinates.
    """
    shape = draw(st.sampled_from(["row", "column", "grid"]))
    long_side = draw(st.integers(min_value=2, max_value=8))
    if shape == "row":
        height, width = 1, long_side
    elif shape == "column":
        height, width = long_side, 1
    else:
        height = draw(st.integers(min_value=1, max_value=6))
        width = draw(st.integers(min_value=1, max_value=6))
    cells = [(row, col) for row in range(height) for col in range(width)]
    if len(cells) < 2:
        cells.append((0, 1))
        width = 2
    cells = draw(st.permutations(cells))
    num_qubits = draw(st.integers(min_value=2, max_value=min(len(cells), 8)))
    placement = Placement(width=width, height=height)
    for qubit in range(num_qubits):
        placement.place(qubit, cells[qubit])
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    pairs = draw(
        st.lists(
            st.tuples(qubit, qubit).filter(lambda pair: pair[0] != pair[1]),
            min_size=1,
            max_size=7,
        )
    )
    factory = SimpleNamespace(
        circuit=[Gate(GateKind.INJECT_T, pair) for pair in pairs],
        permutation_edges=[SimpleNamespace(producer_qubit=s) for s, _ in pairs],
    )
    return factory, placement


configs = st.builds(
    StitchingConfig,
    hop_mode=st.sampled_from(["annealed_midpoint", "annealed_random", "random"]),
    hop_sweeps=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)


def _row_instance():
    """Three collinear braids on a 1x5 row sharing the endpoint (0, 2)."""
    placement = Placement(width=5, height=1)
    for qubit in range(5):
        placement.place(qubit, (0, qubit))
    pairs = [(0, 2), (2, 4), (1, 3)]
    factory = SimpleNamespace(
        circuit=[Gate(GateKind.INJECT_T, pair) for pair in pairs],
        permutation_edges=[SimpleNamespace(producer_qubit=s) for s, _ in pairs],
    )
    return factory, placement


@given(instance=braid_instances(), config=configs)
@example(instance=_row_instance(), config=StitchingConfig(hop_sweeps=2))
@settings(max_examples=150, deadline=None)
def test_batched_annealer_matches_scalar_oracle(instance, config):
    factory, placement = instance
    expected = scalar_optimize_permutation_hops(factory, placement, config)
    assert optimize_permutation_hops(factory, placement, config) == expected


coordinates = st.integers(min_value=0, max_value=4)
cells_st = st.tuples(coordinates, coordinates)


@given(
    source=cells_st,
    target=cells_st,
    hop=cells_st,
    others=st.lists(st.tuples(cells_st, cells_st, cells_st), max_size=6),
)
@example(source=(0, 0), target=(0, 4), hop=(0, 0), others=[((0, 1), (0, 2), (0, 4))])
@settings(max_examples=300, deadline=None)
def test_candidate_crossings_equal_scalar_pair_sum(source, target, hop, others):
    braids = [(source, hop, target)] + others
    rows = [[(*s, *h), (*h, *t)] for s, h, t in braids]
    segments = np.asarray(rows, dtype=float).reshape(len(braids), 2, 4)
    mine = _segments_for(source, target, hop)
    expected = sum(
        segments_intersect(a1, a2, b1, b2)
        for s, h, t in others
        for a1, a2 in mine
        for b1, b2 in _segments_for(s, t, h)
    )
    detour = (
        abs(source[0] - hop[0])
        + abs(source[1] - hop[1])
        + abs(hop[0] - target[0])
        + abs(hop[1] - target[1])
        - abs(source[0] - target[0])
        - abs(source[1] - target[1])
    )
    (cost,) = _hop_costs(segments, 0, source, target, [hop])
    assert cost == 4.0 * expected + 0.5 * detour
    query = segments[0][:, None, :]
    pairs = segments[1:].reshape(1, -1, 4)
    assert int(segments_intersect_array(query, pairs).sum()) == expected
