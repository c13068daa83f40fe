"""Golden pin of the force-directed annealing trajectory.

Cross-engine tests (``test_refine_is_byte_identical_across_tracker_engines``)
only prove that every tracker engine agrees with the others; a change to the
annealer's own call sequence moves all engines at once and slips past them.
This module pins absolute values instead: for the two-level factories the
Fig. 10 sweeps map (capacities 4 and 16), the placement fingerprint and the
``RefineStats`` move counters of ``force_directed_refine`` at seeds 0-2, and
the ``hierarchical_stitching`` placement and hop map at seed 0.

Any intended trajectory change must update these values and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import get_mapper
from repro.distillation import build_two_level_factory
from repro.mapping.force_directed import take_refine_stats

#: (capacity, seed) -> (placement digest, sweeps, proposed, accepted, improving)
FD_GOLDEN = {
    (4, 0): ("f9dc58d582027077", 30, 6856, 697, 379),
    (4, 1): ("e53e73bb19cc10a1", 30, 6933, 813, 454),
    (4, 2): ("b6768ef6331d118e", 30, 6704, 953, 540),
    (16, 0): ("81bb6099f2d5e29f", 30, 14994, 1135, 634),
    (16, 1): ("c07ffb2822e4524a", 30, 15003, 976, 579),
    (16, 2): ("73ac8f43d4d4256e", 30, 15135, 961, 580),
}

#: capacity -> (placement digest, hop-map digest) of stitching at seed 0.
STITCH_GOLDEN = {
    4: ("1a31b33d834526a3", "99d248409d0ab0e3"),
    16: ("7bf2fe5d6104072b", "001ea3348fc64559"),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


@pytest.fixture(scope="module")
def two_level_factories():
    return {
        capacity: build_two_level_factory(capacity, barriers_between_rounds=True)
        for capacity in (4, 16)
    }


@pytest.mark.parametrize("capacity,seed", sorted(FD_GOLDEN))
def test_force_directed_trajectory_is_pinned(two_level_factories, capacity, seed):
    take_refine_stats()
    placement = get_mapper("force_directed").place(
        two_level_factories[capacity], seed=seed
    )
    stats = take_refine_stats()[-1]
    observed = (
        _digest(placement.fingerprint()),
        stats.sweeps,
        stats.proposed_moves,
        stats.accepted_moves,
        stats.improving_moves,
    )
    assert observed == FD_GOLDEN[(capacity, seed)]


@pytest.mark.parametrize("capacity", sorted(STITCH_GOLDEN))
def test_hierarchical_stitching_is_pinned(two_level_factories, capacity):
    mapping = get_mapper("hierarchical_stitching").place(
        two_level_factories[capacity], seed=0
    )
    observed = (
        _digest(mapping.placement.fingerprint()),
        _digest(sorted(mapping.hops.items())),
    )
    assert observed == STITCH_GOLDEN[capacity]
