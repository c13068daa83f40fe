"""The benchmark's three workloads: inputs derived from a workload seed.

Every workload drives the public ``repro-msfu`` CLI (``repro.cli.main``)
with ``--workers 1``.  The seed given to ``run.py --seed`` is never passed
to the program itself; it only selects the sweep seed list or the Fig. 6
base seed, so the same benchmark seed always yields the same inputs.
Why each workload exists, and which numbers each should and should not
move, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Sweep seeds are drawn from this range (any non-negative int is valid).
_SEED_SPACE = 1_000_000

#: The registered mappers measured by the ``mapping.<method>_*`` metrics.
MAPPERS = (
    "random",
    "linear",
    "force_directed",
    "graph_partition",
    "hierarchical_stitching",
)


@dataclass(frozen=True)
class Workload:
    """One workload instance: the CLI call, its size and its check shape.

    ``prefill_argv`` (resume workloads only) is the same CLI call over the
    seeds whose points must already be in the store before timing starts;
    ``expected_store_hits`` is how many plan points the timed call must
    answer from that store.  ``check_samples`` points are re-mapped (or, for
    Fig. 6, re-measured) against the repository's oracles after timing.
    """

    name: str
    kind: str  # "sweep" or "fig6"
    argv: Tuple[str, ...]
    points: int
    inputs: Dict[str, object]
    prefill_argv: Optional[Tuple[str, ...]] = None
    expected_store_hits: int = 0
    check_samples: int = 2

    def cli_args(self, store: str, output: str) -> List[str]:
        """The timed CLI arguments, writing results to ``output``."""
        return _with_io(self.kind, self.argv, store, output)

    def prefill_args(self, store: str, output: str) -> List[str]:
        """The store-filling CLI arguments (resume workloads only)."""
        return _with_io(self.kind, self.prefill_argv, store, output)


def _with_io(kind: str, argv: Tuple[str, ...], store: str, output: str) -> List[str]:
    extra = ["--json", "--output", output]
    if kind == "sweep":
        extra = ["--store", store] + extra
    return list(argv) + extra


def _sweep_argv(methods, levels, capacities, seeds, batch: bool, resume: bool):
    argv = [
        "sweep", "run",
        "--methods", ",".join(methods),
        "--levels", ",".join(str(level) for level in levels),
        "--capacities", ",".join(str(capacity) for capacity in capacities),
        "--seeds", ",".join(str(seed) for seed in seeds),
        "--workers", "1",
    ]
    if batch:
        argv.append("--batch")
    if resume:
        argv.append("--resume")
    return tuple(argv)


def _rng(name: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so this is stable across processes and
    # Python versions (unlike hash()).
    return random.Random(f"perfbench/{name}/{seed}")


def two_level_mapping(seed: int) -> Workload:
    """Cold sweep of the Fig. 10 two-level grid into an empty store."""
    methods = ("linear", "force_directed", "graph_partition", "hierarchical_stitching")
    levels, capacities = (2,), (4, 16)
    # One sweep seed per repetition keeps a repetition near 6 s, so a run stays
    # within its time budget even when the shared host runs 1.6x slower.
    seeds = [_rng("two-level-mapping", seed).randrange(_SEED_SPACE)]
    points = len(methods) * len(levels) * len(capacities) * len(seeds)
    return Workload(
        name="two-level-mapping",
        kind="sweep",
        argv=_sweep_argv(methods, levels, capacities, seeds, batch=False, resume=False),
        points=points,
        inputs={"methods": list(methods), "levels": list(levels),
                "capacities": list(capacities), "seeds": seeds},
        check_samples=2,
    )


def fig6_correlation(seed: int) -> Workload:
    """``run fig6`` scaled up to a capacity-24 factory and 200 mappings."""
    capacity, mappings = 24, 200
    base_seed = _rng("fig6-correlation", seed).randrange(_SEED_SPACE)
    return Workload(
        name="fig6-correlation",
        kind="fig6",
        argv=("run", "fig6", "--capacity", str(capacity),
              "--num-mappings", str(mappings), "--seed", str(base_seed)),
        points=mappings,
        inputs={"capacity": capacity, "num_mappings": mappings, "seed": base_seed},
        check_samples=4,
    )


def cheap_sweep_resume(seed: int) -> Workload:
    """Batched resumed sweep of cheap points, half already in the store."""
    methods, levels, capacities = ("random", "linear"), (1, 2), (4, 16)
    seeds = sorted(_rng("cheap-sweep-resume", seed).sample(range(_SEED_SPACE), 64))
    stored = seeds[::2]
    per_seed = len(methods) * len(levels) * len(capacities)
    return Workload(
        name="cheap-sweep-resume",
        kind="sweep",
        argv=_sweep_argv(methods, levels, capacities, seeds, batch=True, resume=True),
        points=per_seed * len(seeds),
        inputs={"methods": list(methods), "levels": list(levels),
                "capacities": list(capacities), "seeds": seeds,
                "prefilled_seeds": stored},
        prefill_argv=_sweep_argv(
            methods, levels, capacities, stored, batch=True, resume=True
        ),
        expected_store_hits=per_seed * len(stored),
        check_samples=4,
    )


WORKLOADS = {
    "two-level-mapping": two_level_mapping,
    "fig6-correlation": fig6_correlation,
    "cheap-sweep-resume": cheap_sweep_resume,
}


def make(name: str, seed: int) -> Workload:
    """The named workload's instance for one benchmark seed."""
    return WORKLOADS[name](seed)
