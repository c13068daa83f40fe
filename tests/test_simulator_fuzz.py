"""Differential fuzz harness: the batched simulator vs the reference oracles.

Each trial draws a random scenario — one or two circuits, one or two
placements each, a handful of simulator configs, the whole point set
shuffled and chunked into random batch sizes — and checks that
:func:`repro.routing.simulate_batch` (the compiled kernel when it builds;
per-point ``simulate`` under ``REPRO_NO_KERNEL=1``) produces ``to_dict()``
output byte-identical to per-point :func:`repro.routing.simulate`, which
is itself cross-checked against :func:`repro.routing.simulate_reference`
(stall_events, distinct_stalls and wakeups included).  A small corpus
runs in tier 1; the nightly CI job widens it with ``--fuzz-iterations``.

Failures are collected, not raised one at a time: the assertion message
lists every failing seed with a one-line repro command
(``--fuzz-seeds=<seed>`` replays exactly that trial).
"""

from __future__ import annotations

import random

import pytest

from repro.mapping import Placement
from repro.routing import (
    SimulatorConfig,
    simulate,
    simulate_batch,
    simulate_reference,
)
from test_simulator_parity import random_gates, random_placement

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20260808


def _random_batchable_config(rng: random.Random, gates, placement: Placement):
    """Mostly batchable configs; ~1 in 5 exercise the scalar fallback."""
    hops = {}
    allow_detour = False
    if rng.random() < 0.2:
        if rng.random() < 0.5:
            allow_detour = True
        else:
            hops = {
                index: (
                    rng.randrange(placement.height),
                    rng.randrange(placement.width),
                )
                for index, gate in enumerate(gates)
                if gate.kind.value in ("cnot", "inject_t")
                and rng.random() < 0.3
            }
    return SimulatorConfig(
        max_candidates=rng.choice([1, 2, 4, 8]),
        allow_detour=allow_detour,
        detour_slack=rng.choice([1.5, 2.0, 4.0]),
        hops=hops,
    )


def run_trial(seed: int) -> None:
    """One differential trial; raises AssertionError on any divergence."""
    rng = random.Random(SEED_BASE + seed)
    points = []
    for _ in range(rng.randint(1, 2)):  # circuits per trial
        num_qubits = rng.randint(4, 9)
        gates = tuple(random_gates(rng, num_qubits))
        for _ in range(rng.randint(1, 2)):  # placements per circuit
            placement = random_placement(rng, num_qubits)
            for _ in range(rng.randint(1, 3)):  # configs per placement
                config = _random_batchable_config(rng, gates, placement)
                points.append((gates, placement, config))
    rng.shuffle(points)

    expected = []
    for gates, placement, config in points:
        masked = simulate(gates, placement, config)
        reference = simulate_reference(gates, placement, config)
        assert masked.to_dict() == reference.to_dict(), (
            "masked engine diverged from the set-based reference"
        )
        expected.append(masked.to_dict())

    batch_size = rng.choice([1, 3, 8, len(points)])
    # Whole batch in one call...
    out = simulate_batch(points)
    assert [r.to_dict() for r in out] == expected, (
        "simulate_batch diverged on the full batch"
    )
    # ...and chunked into sub-batches of the trial's random size.
    chunked = []
    for start in range(0, len(points), batch_size):
        chunked.extend(simulate_batch(points[start:start + batch_size]))
    assert [r.to_dict() for r in chunked] == expected, (
        f"simulate_batch diverged at batch_size={batch_size}"
    )


def test_differential_fuzz(request):
    """Sweep the seeded corpus; report every failing seed with a repro."""
    seeds_option = request.config.getoption("--fuzz-seeds")
    if seeds_option:
        seeds = [int(token) for token in str(seeds_option).split(",") if token.strip()]
    else:
        seeds = list(range(request.config.getoption("--fuzz-iterations")))
    failures = []
    for seed in seeds:
        try:
            run_trial(seed)
        except AssertionError as error:
            failures.append((seed, str(error).splitlines()[0]))
    if failures:
        lines = [f"{len(failures)} of {len(seeds)} fuzz trials diverged:"]
        for seed, message in failures:
            lines.append(
                f"  seed {seed}: {message}\n"
                f"    repro: python -m pytest "
                f"tests/test_simulator_fuzz.py::test_differential_fuzz "
                f"--fuzz-seeds={seed}"
            )
        pytest.fail("\n".join(lines))


def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if an engine ever lies."""
    from repro.routing.batchsim import simulate_batch as real

    def corrupted(requests):
        results = real(requests)
        if results and results[0].gate_start:
            results[0].gate_start[0] += 1
        return results

    monkeypatch.setattr("test_simulator_fuzz.simulate_batch", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)
