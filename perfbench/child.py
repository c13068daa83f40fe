"""One fresh benchmark process: ``python3 child.py MODE JOB.json SPAWN_TIME``.

``run.py`` starts a new interpreter for every measurement, so in-process
caches are cold the way they are for a CLI user.  ``JOB.json`` names the
workload, its seed, the store and output paths and where to write this
process's result; ``SPAWN_TIME`` is the parent's ``time.monotonic()`` just
before the spawn (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s``
includes interpreter start-up.

Modes:

``warm``      set up, then report provenance (compiles the kernels on a
              cold checkout, so later processes load them from disk);
``setup``     set up only;
``prefill``   run the workload's store-filling CLI call (untimed);
``workload``  set up, then time one ``repro.cli.main`` call, optionally
              with the tracing wrappers of :mod:`tracing` installed;
``check``     verify a workload output against the repository's oracles.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import resource
import sys
import time


def _setup(spawned: float) -> dict:
    """Import the CLI and load both C kernels: the user's fixed start-up cost."""
    started = time.perf_counter()
    import repro.cli  # noqa: F401

    imported = time.perf_counter()
    from repro.kernels import metrics
    from repro.routing import kernel

    kernels = {
        "metrics": metrics.load() is not None,
        "batchsim": kernel.load() is not None,
    }
    loaded = time.perf_counter()
    return {
        "setup_s": time.monotonic() - spawned,
        "import_s": imported - started,
        "kernel_load_s": loaded - imported,
        "kernels": kernels,
    }


def _provenance() -> dict:
    import repro
    from repro.kernels import metrics, runtime
    from repro.routing import kernel

    libraries = (("metrics", metrics.load()), ("batchsim", kernel.load()))
    return {
        "repro_path": os.path.dirname(os.path.abspath(repro.__file__)),
        "kernel_libraries": {
            name: os.path.basename(lib.path) if lib else None for name, lib in libraries
        },
        "compiler": runtime.compiler_path(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _dir_bytes(path: str) -> int:
    total = 0
    for directory, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


def _run_workload(job: dict, workload, result: dict) -> None:
    import repro.cli

    store, output = job["store"], job["output"]
    argv = workload.cli_args(store, output)
    bytes_before = _dir_bytes(store)
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin("cli")
    started = time.perf_counter()
    code = repro.cli.main(argv)
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.end()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["wall_s"] = wall
    result["exit_code"] = code
    if tracer is not None:
        from workloads import MAPPERS

        summary = tracing.summarize(tracer, MAPPERS)
        summary["metrics"]["store.bytes_written"] = _dir_bytes(store) - bytes_before
        result["trace"] = summary
        with open(job["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


# ----------------------------------------------------------------------
# Output checks (run after timing, in their own process)
# ----------------------------------------------------------------------
def _gmean(values) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _sample(workload, seed: int, count: int):
    rng = random.Random(f"perfbench-check/{workload.name}/{seed}")
    return sorted(rng.sample(range(workload.points), min(count, workload.points)))


def _check_sweep(workload, seed: int, data: dict) -> dict:
    from dataclasses import replace

    from repro.analysis.volume import mapping_area
    from repro.api import Pipeline, SweepPlan, get_mapper
    from repro.mapping.stitching import StitchedMapping
    from repro.routing.simulator import SimulatorConfig, simulate_reference

    inputs = workload.inputs
    plan = SweepPlan.from_grid(
        methods=inputs["methods"], capacities=inputs["capacities"],
        levels=inputs["levels"], seeds=inputs["seeds"],
    )
    evaluations = data["evaluations"]
    if len(evaluations) != len(plan):
        return {"failed": workload.points,
                "failures": [f"{len(evaluations)} results for {len(plan)} points"]}
    bad, failures = set(), []

    def fail(index: int, message: str) -> None:
        bad.add(index)
        failures.append(f"point {index}: {message}")

    hits = data["stats"]["store_hits"]
    if hits != workload.expected_store_hits:
        failures.append(f"{hits} store hits, expected {workload.expected_store_hits}")
        bad.update(range(len(plan)))
    for index, (request, point) in enumerate(zip(plan, evaluations)):
        key = (point["method"], point["capacity"], point["levels"])
        if key != (request.method, request.capacity, request.levels):
            fail(index, f"answers {key}, not the planned request")
        if point["volume"] != point["latency"] * point["area"]:
            fail(index, "volume != latency * area")
        if point["latency"] < point["critical_latency"]:
            fail(index, "latency below the critical-path bound")
        if point["area"] < point["critical_area"]:
            fail(index, "area below the critical-area bound")
    pipeline = Pipeline()
    sampled = _sample(workload, seed, workload.check_samples)
    for index in sampled:
        request, point = plan[index], evaluations[index]
        factory = pipeline.factory(request.capacity, request.levels, request.reuse)
        outcome = get_mapper(request.method).place(
            factory, seed=request.seed, context=request.context()
        )
        config = SimulatorConfig()
        if isinstance(outcome, StitchedMapping):
            circuit, placement = outcome.factory.circuit, outcome.placement
            config = replace(config, hops=outcome.hops)
        else:
            circuit, placement = factory.circuit, outcome
        latency = simulate_reference(circuit, placement, config).latency
        if (latency, mapping_area(placement)) != (point["latency"], point["area"]):
            fail(index, f"re-mapped and reference-simulated to latency {latency}, "
                        f"area {mapping_area(placement)}")
    return {
        "failed": len(bad),
        "failures": failures[:10],
        "sampled": sampled,
        "volume_gmean": _gmean([point["volume"] for point in evaluations]),
    }


def _check_fig6(workload, seed: int, data: dict) -> dict:
    import inspect

    from repro.analysis.correlation import correlation_study
    from repro.analysis.volume import mapping_area
    from repro.distillation.block_code import build_single_level_factory
    from repro.graphs.interaction import interaction_graph
    from repro.graphs.metrics import count_edge_crossings_reference, pearson_correlation
    from repro.mapping.random_map import random_placement
    from repro.routing.simulator import simulate_reference

    inputs = workload.inputs
    study = data["result"]["study"]
    samples = study["samples"]
    if len(samples) != workload.points:
        return {"failed": workload.points,
                "failures": [f"{len(samples)} samples for {workload.points} mappings"]}
    circuit = build_single_level_factory(inputs["capacity"]).circuit
    graph = interaction_graph(circuit)
    qubits = list(range(circuit.num_qubits))
    slack = inspect.signature(correlation_study).parameters["slack"].default
    placements = [
        random_placement(qubits, seed=inputs["seed"] + index, slack=slack)
        for index in range(len(samples))
    ]
    bad, failures = set(), []

    def fail(index: int, message: str) -> None:
        bad.add(index)
        failures.append(f"mapping {index}: {message}")

    for index, sample in enumerate(samples):
        if sample["seed"] != inputs["seed"] + index:
            fail(index, f"seed {sample['seed']}, expected {inputs['seed'] + index}")
    sampled = _sample(workload, seed, workload.check_samples)
    for index in sampled:
        sample, placement = samples[index], placements[index]
        positions = placement.as_float_positions()
        crossings = count_edge_crossings_reference(graph, positions)
        if crossings != sample["edge_crossings"]:
            fail(index, f"{crossings} reference crossings, reported "
                        f"{sample['edge_crossings']}")
        latency = simulate_reference(circuit, placement).latency
        if latency != sample["latency"]:
            fail(index, f"reference latency {latency}, reported {sample['latency']}")
    latencies = [float(sample["latency"]) for sample in samples]
    for key, field in (("crossings_r", "edge_crossings"),
                       ("length_r", "average_edge_length"),
                       ("spacing_r", "average_edge_spacing")):
        expected = pearson_correlation([s[field] for s in samples], latencies)
        if study[key] != expected:
            failures.append(f"{key} {study[key]} != {expected} recomputed from samples")
            bad.update(range(len(samples)))
    volumes = [s["latency"] * mapping_area(p) for s, p in zip(samples, placements)]
    return {
        "failed": len(bad),
        "failures": failures[:10],
        "sampled": sampled,
        "volume_gmean": _gmean(volumes),
    }


def main(argv) -> int:
    mode, job_path, spawned = argv[1], argv[2], float(argv[3])
    result = _setup(spawned)
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    import workloads

    workload = workloads.make(job["workload"], job["seed"])
    if mode == "warm":
        result["provenance"] = _provenance()
    elif mode == "prefill":
        import repro.cli

        result["exit_code"] = repro.cli.main(
            workload.prefill_args(job["store"], job["output"])
        )
    elif mode == "workload":
        _run_workload(job, workload, result)
    elif mode == "check":
        with open(job["output"], "r", encoding="utf-8") as handle:
            data = json.load(handle)
        check = _check_sweep if workload.kind == "sweep" else _check_fig6
        result["check"] = check(workload, job["seed"], data)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
