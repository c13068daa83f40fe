"""Differential fuzz harness: the compiled tracker vs the scalar reference.

Each trial draws a random scenario — a random interaction-style graph
(occasionally weighted, occasionally with float or string vertex
labels), a random layout, and a random sequence of moves and
evaluated-only proposals — and checks that the ``compiled``
:class:`repro.graphs.metrics.MappingCostTracker` engine stays
byte-identical to the ``scalar`` reference on the full tracker state
after every step: per-move deltas, crossings, total/weighted length,
spacing sum, combined cost, and the tracked positions.  Graphs whose ids
the kernel cannot hold exactly must select ``scalar`` instead.  Without
the kernel there is nothing to compare, so the module skips.  A small
corpus runs in tier 1; the nightly CI job widens it with
``--fuzz-iterations``.

Failures are collected, not raised one at a time: the assertion message
lists every failing seed with a one-line repro command
(``--fuzz-seeds=<seed>`` replays exactly that trial).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.graphs import MappingCostTracker, tracker_engines

pytestmark = pytest.mark.skipif(
    tracker_engines() == ["scalar"],
    reason="the metrics kernel is unavailable: scalar is the only tracker engine",
)

#: Offset added to the trial index so seed 0 is not a magic value.
SEED_BASE = 20260808


def _random_graph(rng: random.Random) -> nx.Graph:
    n = rng.randint(4, 32)
    graph = nx.gnm_random_graph(
        n, rng.randint(n - 1, 3 * n), seed=rng.randrange(1 << 30)
    )
    if rng.random() < 0.3:  # weighted edges exercise weighted-length sums
        for a, b in graph.edges():
            graph[a][b]["weight"] = rng.choice([0.5, 1.0, 2.0, 3.5])
    label = rng.random()
    if label < 0.15:  # string ids keep the compiled engine off
        graph = nx.relabel_nodes(graph, {v: f"q{v}" for v in graph.nodes()})
    elif label < 0.3:  # so do float ids (an int64 cast would merge v/4 ids)
        graph = nx.relabel_nodes(graph, {v: v / 4 for v in graph.nodes()})
    return graph


def _random_layout(rng: random.Random, graph: nx.Graph):
    span = rng.randint(6, 18)
    return {
        vertex: (float(rng.randrange(span)), float(rng.randrange(span)))
        for vertex in graph.nodes()
    }


def _random_updates(rng: random.Random, vertices, span: int):
    chosen = rng.sample(vertices, min(len(vertices), rng.randint(1, 3)))
    return {
        vertex: (float(rng.randrange(span)), float(rng.randrange(span)))
        for vertex in chosen
    }


def _state(tracker: MappingCostTracker):
    return (
        tracker.crossings,
        tracker.total_edge_length,
        tracker.total_weighted_length,
        tracker.spacing_sum,
        tracker.cost(),
        dict(tracker._positions),
    )


def run_trial(seed: int) -> None:
    """One differential trial; raises AssertionError on any divergence."""
    rng = random.Random(SEED_BASE + seed)
    graph = _random_graph(rng)
    layout = _random_layout(rng, graph)
    vertices = sorted(graph.nodes(), key=str)
    span = 20
    trackers = {"scalar": MappingCostTracker(graph, dict(layout), engine="scalar")}
    if all(isinstance(vertex, int) for vertex in graph.nodes()):
        trackers["compiled"] = MappingCostTracker(
            graph, dict(layout), engine="compiled"
        )
    else:
        assert MappingCostTracker(graph, dict(layout)).engine == "scalar", (
            f"non-integer ids selected the compiled engine (seed {seed})"
        )
    reference = trackers["scalar"]
    ref_state = _state(reference)
    for engine, tracker in trackers.items():
        assert _state(tracker) == ref_state, (
            f"engine={engine!r} diverged from the scalar reference "
            f"at construction (seed {seed})"
        )

    for step in range(rng.randint(10, 40)):
        action = rng.random()
        if action < 0.7:  # apply
            updates = _random_updates(rng, vertices, span)
            deltas = {
                engine: tracker.apply(updates)
                for engine, tracker in trackers.items()
            }
            expected = deltas["scalar"]
            for engine, delta in deltas.items():
                assert delta == expected, (
                    f"engine={engine!r} diverged on the apply() delta "
                    f"at step {step} (seed {seed})"
                )
        else:  # a run of evaluated-only proposals (no commit)
            proposals = [
                _random_updates(rng, vertices, span)
                for _ in range(rng.randint(1, 6))
            ]
            evaluated = {
                engine: [tracker.evaluate(updates) for updates in proposals]
                for engine, tracker in trackers.items()
            }
            for engine, deltas in evaluated.items():
                assert deltas == evaluated["scalar"], (
                    f"engine={engine!r} diverged on evaluate() "
                    f"at step {step} (seed {seed})"
                )
        ref_state = _state(reference)
        for engine, tracker in trackers.items():
            assert _state(tracker) == ref_state, (
                f"engine={engine!r} diverged on the tracker state "
                f"at step {step} (seed {seed})"
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
                f"tests/test_metrics_fuzz.py::test_differential_fuzz "
                f"--fuzz-seeds={seed}"
            )
        pytest.fail("\n".join(lines))


def test_harness_detects_divergence(monkeypatch):
    """The harness itself must fail loudly if an engine ever lies."""
    real_apply = MappingCostTracker.apply

    def corrupted(self, updates):
        delta = real_apply(self, updates)
        if self.engine == "scalar":
            return delta
        return delta + 1.0

    monkeypatch.setattr(MappingCostTracker, "apply", corrupted)
    with pytest.raises(AssertionError, match="diverged"):
        run_trial(0)
