"""Golden pin of the force-directed annealing trajectory.

Cross-engine tests (``test_refine_is_byte_identical_across_tracker_engines``)
only prove that every tracker engine agrees with the others; a change to the
annealer's own call sequence moves all engines at once and slips past them.
This module pins absolute values instead: for the two-level factories the
Fig. 10 sweeps map (capacities 4 and 16), the placement fingerprint and the
``RefineStats`` move counters of ``force_directed_refine`` at seeds 0-2, and
the ``hierarchical_stitching`` placement and hop map at seed 0.  On the
stitched placement it also pins the hop map of ``optimize_permutation_hops``
for both annealed hop modes at seeds 0-2, and the Fig. 9c/9d latency table
at K=4.  Finally it pins the canonical ``to_dict()`` and the summed latency
and stall cycles of five paper experiments at small inputs (Fig. 7a/7b,
Table I level 1, Fig. 6, Fig. 10 single-level), the only place the
simulated cycle counts of the paper workloads are written down.

Any intended trajectory change must update these values and say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import get_experiment, get_mapper
from repro.distillation import build_two_level_factory
from repro.experiments import fig9_permutation
from repro.mapping.force_directed import take_refine_stats
from repro.mapping.stitching import StitchingConfig, optimize_permutation_hops

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

#: (hop mode, capacity, seed) -> hop-map digest of ``optimize_permutation_hops``
#: on the seed-0 stitched placement.
HOP_GOLDEN = {
    ("annealed_midpoint", 4, 0): "99d248409d0ab0e3",
    ("annealed_midpoint", 4, 1): "88cbc8ca3707f046",
    ("annealed_midpoint", 4, 2): "e67d6eaec43067b7",
    ("annealed_random", 4, 0): "71b8dec47f7fa0eb",
    ("annealed_random", 4, 1): "6077e13d88ce3b6d",
    ("annealed_random", 4, 2): "05ce6777a6f127c3",
    ("annealed_midpoint", 16, 0): "001ea3348fc64559",
    ("annealed_midpoint", 16, 1): "23ea3c7d124bfdb8",
    ("annealed_midpoint", 16, 2): "fd6e6ecfdde128d5",
    ("annealed_random", 16, 0): "2ea605615514d996",
    ("annealed_random", 16, 1): "7c3be4d3fdc73411",
    ("annealed_random", 16, 2): "847cb04a07c80c31",
}

#: ``fig9_permutation.run(capacities=[4], seed=0).by_mode()``.
FIG9_GOLDEN = {
    "none": {4: 28},
    "random": {4: 36},
    "annealed_random": {4: 36},
    "annealed_midpoint": {4: 28},
}

#: experiment -> (kwargs, canonical ``to_dict()`` digest, summed latency,
#: summed stall cycles).  Fig. 6 reports per-mapping latencies only, so its
#: stall sum is ``None``.
EXPERIMENT_GOLDEN = {
    "fig7a": ({"capacities": [2, 4]}, "b9c0c1bfaa2692e0", 160, 92),
    "fig7b": ({"capacities": [4]}, "fe286b048c664f62", 220, 742),
    "table1-level1": ({"capacities": [2]}, "32d30c42e89bd7ce", 168, 84),
    "fig6": ({"num_mappings": 5}, "0550549e31247c81", 400, None),
    "fig10-single": ({"capacities": [2, 4]}, "82fe06fb3949f139", 224, 96),
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


@pytest.fixture(scope="module")
def stitched_mappings(two_level_factories):
    return {
        capacity: get_mapper("hierarchical_stitching").place(factory, seed=0)
        for capacity, factory in two_level_factories.items()
    }


@pytest.mark.parametrize("mode,capacity,seed", sorted(HOP_GOLDEN))
def test_permutation_hops_are_pinned(stitched_mappings, mode, capacity, seed):
    mapping = stitched_mappings[capacity]
    hops = optimize_permutation_hops(
        mapping.factory,
        mapping.placement,
        StitchingConfig(hop_mode=mode, seed=seed),
    )
    assert _digest(sorted(hops.items())) == HOP_GOLDEN[(mode, capacity, seed)]


def test_fig9_permutation_latencies_are_pinned():
    result = fig9_permutation.run(capacities=[4], seed=0)
    assert result.by_mode() == FIG9_GOLDEN


@pytest.mark.parametrize("name", sorted(EXPERIMENT_GOLDEN))
def test_experiment_outputs_are_pinned(name):
    kwargs, digest, latency, stall_cycles = EXPERIMENT_GOLDEN[name]
    result = get_experiment(name).run(**kwargs)
    canonical = json.dumps(result.to_dict(), sort_keys=True)
    evaluations = getattr(result, "evaluations", None)
    if evaluations is None:
        sums = (sum(sample.latency for sample in result.study.samples), None)
    else:
        sums = (
            sum(e.latency for e in evaluations),
            sum(e.stall_cycles for e in evaluations),
        )
    assert (_digest(canonical), *sums) == (digest, latency, stall_cycles)
