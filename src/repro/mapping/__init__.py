"""Qubit mapping: baselines, force-directed, graph partitioning, stitching."""

from .force_directed import (
    ForceDirectedConfig,
    RefineStats,
    assign_dipole_poles,
    force_directed_placement,
    force_directed_refine,
    take_refine_stats,
)
from .graph_partition import GridRegion, graph_partition_placement
from .linear import (
    linear_factory_placement,
    linear_module_cells,
    linear_module_shape,
    linear_single_module_placement,
)
from .placement import (
    Cell,
    Placement,
    grid_dimensions_for,
    pack_placements,
    row_major_placement,
)
from .random_map import random_circuit_placement, random_placement, random_placements
from .stitching import (
    StitchedMapping,
    StitchingConfig,
    hierarchical_stitching,
    optimize_permutation_hops,
    permutation_gate_indices,
    stitched_mapping_for_factory,
)

__all__ = [
    "ForceDirectedConfig",
    "RefineStats",
    "assign_dipole_poles",
    "force_directed_placement",
    "force_directed_refine",
    "take_refine_stats",
    "GridRegion",
    "graph_partition_placement",
    "linear_factory_placement",
    "linear_module_cells",
    "linear_module_shape",
    "linear_single_module_placement",
    "Cell",
    "Placement",
    "grid_dimensions_for",
    "pack_placements",
    "row_major_placement",
    "random_circuit_placement",
    "random_placement",
    "random_placements",
    "StitchedMapping",
    "StitchingConfig",
    "hierarchical_stitching",
    "optimize_permutation_hops",
    "permutation_gate_indices",
    "stitched_mapping_for_factory",
]
