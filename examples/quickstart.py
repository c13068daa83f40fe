#!/usr/bin/env python
"""Quickstart: the pluggable evaluation API on a single-level factory.

This example walks the core loop of the toolchain through `repro.api`:

1. inspect the registered mapping procedures,
2. evaluate one (method, capacity) configuration with the pipeline,
3. register a tiny custom mapper and sweep it against a built-in,
4. round-trip a result through JSON.

Run with::

    python examples/quickstart.py
"""

import json

from repro.api import (
    EvaluationRequest,
    FactoryEvaluation,
    Mapper,
    Pipeline,
    available_mappers,
    register_mapper,
    to_json,
)
from repro.mapping import Placement, grid_dimensions_for


def main() -> None:
    # 1. The mapper registry: the paper's five procedures ship pre-registered.
    print("Registered mappers:", ", ".join(available_mappers()))

    # 2. One evaluation = one request through the pipeline.  The pipeline
    #    builds the factory circuit (cached across evaluations), maps it and
    #    runs the cycle-accurate braid simulator.
    pipeline = Pipeline()
    capacity = 8
    point = pipeline.evaluate(EvaluationRequest(method="linear", capacity=capacity))
    print(f"\nLinear mapping, capacity {capacity}:")
    print(f"  simulated latency : {point.latency} cycles "
          f"(lower bound {point.critical_latency})")
    print(f"  area              : {point.area} logical qubits "
          f"(lower bound {point.critical_area})")
    print(f"  space-time volume : {point.volume} qubit-cycles "
          f"({point.volume_over_critical:.2f}x the critical volume)")

    # 3. A custom mapper plugs into the same pipeline (and into run_sweep,
    #    the experiments and the CLI) by registering a name.
    @register_mapper
    class SnakeMapper(Mapper):
        """Row-major snake layout — a deliberately naive baseline."""

        name = "snake"

        def place(self, factory, *, seed=0, context=None):
            qubits = list(range(factory.circuit.num_qubits))
            height, width = grid_dimensions_for(len(qubits))
            placement = Placement(width=width, height=height)
            for index, qubit in enumerate(qubits):
                row, col = divmod(index, width)
                placement.place(qubit, (row, width - 1 - col if row % 2 else col))
            return placement

    print("\nmethod          latency      area    volume")
    for method in ("linear", "snake"):
        result = pipeline.evaluate(
            EvaluationRequest(method=method, capacity=capacity)
        )
        print(f"{method:12s}{result.latency:>10d}{result.area:>10d}"
              f"{result.volume:>10d}")
    print(f"(factory builds: {pipeline.stats.factory_builds}, "
          f"cache hits: {pipeline.stats.factory_cache_hits} — the snake sweep reused "
          f"the built circuit)")

    # 4. Results are JSON round-trippable for dashboards and downstream tools.
    text = to_json(point)
    restored = FactoryEvaluation.from_dict(json.loads(text))
    print(f"\nJSON round-trip intact: {restored == point}")


if __name__ == "__main__":
    main()
