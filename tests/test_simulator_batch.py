"""Cross-engine invariants of the batched simulator core.

:func:`repro.routing.simulate_batch` promises byte-identical
``SimulationResult.to_dict()`` output to per-point
:func:`repro.routing.simulate` (and, transitively through the parity
suite, to :func:`repro.routing.simulate_reference`) at **any** batch
size and grouping.  These tests pin the invariants that promise decomposes
into — batch-of-1 equals scalar, grouping/order independence, early
retirees not perturbing survivors, the C plan builder matching the pure
Python one — plus the engine-selection and fallback contract
(``engine=`` validation, ``REPRO_NO_KERNEL``, scalar-config points inside
a batch).  The randomized end-to-end sweep lives in
``test_simulator_fuzz.py``.
"""

from __future__ import annotations

import pytest

from repro.circuits.gates import cnot
from repro.mapping import (
    Placement,
    linear_factory_placement,
    random_circuit_placement,
)
from repro.routing import (
    Mesh,
    SimulatorConfig,
    kernel_available,
    simulate,
    simulate_batch,
    simulate_reference,
)
from repro.routing import batchsim
from repro.routing import kernel as kernel_module
from repro.routing.simulator import _gate_list


def available_engines():
    """Engines runnable in this environment (``scalar`` always is)."""
    engines = ["scalar"]
    if kernel_available():
        engines.append("compiled")
    return engines


def dicts(results):
    return [result.to_dict() for result in results]


@pytest.fixture(scope="module")
def k4_points(single_level_k4):
    """A mixed point set over the K=4 factory: 2 placements x 3 configs."""
    gates = _gate_list(single_level_k4.circuit)
    placements = [
        linear_factory_placement(single_level_k4),
        random_circuit_placement(single_level_k4.circuit, seed=3),
    ]
    configs = [SimulatorConfig(max_candidates=mc) for mc in (1, 2, 8)]
    return [(gates, p, c) for p in placements for c in configs]


@pytest.fixture(scope="module")
def k4_expected(k4_points):
    return [simulate(g, p, c).to_dict() for g, p, c in k4_points]


class TestBatchInvariants:
    @pytest.mark.parametrize("engine", available_engines())
    def test_batch_of_one_matches_scalar(self, single_level_k4, engine):
        placement = random_circuit_placement(single_level_k4.circuit, seed=7)
        config = SimulatorConfig(max_candidates=2)
        point = (single_level_k4.circuit, placement, config)
        batched = simulate_batch([point], engine=engine)
        assert len(batched) == 1
        expected = simulate(single_level_k4.circuit, placement, config)
        assert batched[0].to_dict() == expected.to_dict()

    @pytest.mark.parametrize("engine", available_engines())
    def test_full_batch_matches_scalar(self, k4_points, k4_expected, engine):
        assert dicts(simulate_batch(k4_points, engine=engine)) == k4_expected

    @pytest.mark.parametrize("engine", available_engines())
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_split_independence(self, k4_points, k4_expected, engine, size):
        """Chunking a batch into sub-batches of any size changes nothing."""
        out = []
        for start in range(0, len(k4_points), size):
            out.extend(
                simulate_batch(k4_points[start:start + size], engine=engine)
            )
        assert dicts(out) == k4_expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_order_independence(self, k4_points, k4_expected, engine):
        """Permuting the request order permutes the results, nothing else."""
        order = [4, 0, 5, 2, 1, 3]
        permuted = simulate_batch(
            [k4_points[i] for i in order], engine=engine
        )
        assert dicts(permuted) == [k4_expected[i] for i in order]

    @pytest.mark.parametrize("engine", available_engines())
    def test_mixed_circuit_grouping(
        self, single_level_k4, single_level_k8, engine
    ):
        """Interleaved circuits group internally; results stay per-request."""
        points = []
        for seed in range(2):
            for factory in (single_level_k4, single_level_k8):
                placement = random_circuit_placement(
                    factory.circuit, seed=seed
                )
                points.append(
                    (factory.circuit, placement, SimulatorConfig(max_candidates=2))
                )
        expected = [simulate(g, p, c).to_dict() for g, p, c in points]
        assert dicts(simulate_batch(points, engine=engine)) == expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_early_retirees_do_not_perturb_survivors(
        self, single_level_k8, engine
    ):
        """A quickly finishing point leaves long-running lane-mates exact.

        The linear placement of the K=8 factory finishes far earlier than
        the congested random placements batched with it; the survivors'
        results must equal their solo runs byte for byte.
        """
        gates = _gate_list(single_level_k8.circuit)
        fast = linear_factory_placement(single_level_k8)
        slow = [
            random_circuit_placement(single_level_k8.circuit, seed=s)
            for s in (0, 3)
        ]
        config = SimulatorConfig(max_candidates=1)
        points = [(gates, p, config) for p in [slow[0], fast, slow[1]]]
        solo = [simulate(g, p, c) for g, p, c in points]
        assert solo[1].latency < min(solo[0].latency, solo[2].latency)
        assert dicts(simulate_batch(points, engine=engine)) == dicts(solo)

    @pytest.mark.parametrize("engine", available_engines())
    def test_matches_untracked_reference(self, k4_points, engine):
        """Satellite: ``simulate_reference(track_wakeups=False)`` agreement.

        The untracked oracle reports ``wakeups=0`` by construction (the
        ``sim-congestion`` bench depends on this); everything else in its
        ``to_dict()`` must match the batched engines field for field.
        """
        batched = simulate_batch(k4_points, engine=engine)
        for (g, p, c), result in zip(k4_points, batched):
            untracked = simulate_reference(g, p, c, track_wakeups=False)
            batched_dict = result.to_dict()
            untracked_dict = untracked.to_dict()
            assert untracked_dict.pop("wakeups") == 0
            batched_dict.pop("wakeups")
            assert batched_dict == untracked_dict

    @pytest.mark.parametrize("engine", available_engines())
    def test_scalar_config_points_inside_batch(self, single_level_k4, engine):
        """Detour/hop configs fall back per point without breaking the batch."""
        placement = random_circuit_placement(single_level_k4.circuit, seed=1)
        configs = [
            SimulatorConfig(max_candidates=2),
            SimulatorConfig(allow_detour=True, detour_slack=3.0),
            SimulatorConfig(hops={0: (1, 1)}, max_candidates=2),
        ]
        points = [(single_level_k4.circuit, placement, c) for c in configs]
        expected = [simulate(g, p, c).to_dict() for g, p, c in points]
        assert dicts(simulate_batch(points, engine=engine)) == expected

    @pytest.mark.parametrize("engine", available_engines())
    def test_stale_freed_bits_regression(self, engine):
        """Fuzz-found: an unparked retirement must not leak freed cells.

        Minimized from fuzz seed 11: gate 3 retires at a moment when
        nothing is parked, so a since-removed numpy engine once skipped
        consuming its freed-cell scratch rows; the next retirement then
        cleared cells of the braid issued in between, letting gate 5 issue
        one cycle early instead of stalling.  Kept as a scenario every
        engine must get right.
        """
        from repro.circuits.gates import h, inject_t

        gates = (
            cnot(5, 4), h(1), cnot(1, 2), cnot(4, 6), cnot(2, 1),
            inject_t(5, 6),
        )
        placement = Placement(
            width=3,
            height=4,
            positions={
                0: (0, 1), 1: (3, 0), 2: (3, 1), 3: (0, 2),
                4: (2, 0), 5: (3, 2), 6: (0, 0),
            },
        )
        config = SimulatorConfig(max_candidates=4)
        expected = simulate(gates, placement, config)
        assert expected.stall_events == 1  # the scenario must actually stall
        points = [(gates, placement, config)] * 2
        batched = simulate_batch(points, engine=engine)
        assert [r.to_dict() for r in batched] == [expected.to_dict()] * 2

    @pytest.mark.parametrize("engine", available_engines())
    def test_max_cycles_exceeded_parity(self, engine):
        """The scalar engine's max_cycles error fires identically batched."""
        gates = (cnot(0, 1), cnot(2, 3), cnot(0, 3))
        placement = Placement(
            width=4,
            height=1,
            positions={q: (0, q) for q in range(4)},
        )
        points = [(gates, placement, SimulatorConfig(max_cycles=0))]
        with pytest.raises(RuntimeError, match="max_cycles=0"):
            simulate_batch(points, engine=engine)


class TestEngineSelection:
    def test_unknown_engine_rejected(self, single_level_k4):
        placement = linear_factory_placement(single_level_k4)
        with pytest.raises(ValueError, match="unknown batch engine"):
            simulate_batch(
                [(single_level_k4.circuit, placement, None)], engine="magic"
            )

    def test_empty_batch(self):
        assert simulate_batch([]) == []

    def test_none_config_defaults(self, single_level_k4):
        placement = linear_factory_placement(single_level_k4)
        batched = simulate_batch([(single_level_k4.circuit, placement, None)])
        expected = simulate(single_level_k4.circuit, placement)
        assert batched[0].to_dict() == expected.to_dict()

    def test_vector_engine_is_gone(self, single_level_k4):
        placement = linear_factory_placement(single_level_k4)
        with pytest.raises(ValueError, match="unknown batch engine"):
            simulate_batch(
                [(single_level_k4.circuit, placement, None)], engine="vector"
            )

    def test_no_kernel_env_pins_python_paths(
        self, single_level_k4, monkeypatch
    ):
        """REPRO_NO_KERNEL=1 disables the compiled engine, not correctness."""
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        kernel_module.reset()
        try:
            assert not kernel_available()
            placement = random_circuit_placement(
                single_level_k4.circuit, seed=5
            )
            points = [
                (single_level_k4.circuit, placement, SimulatorConfig(max_candidates=2)),
                (single_level_k4.circuit, placement, SimulatorConfig(max_candidates=8)),
            ]
            with pytest.raises(RuntimeError, match="compiled"):
                simulate_batch(points, engine="compiled")
            expected = [simulate(g, p, c).to_dict() for g, p, c in points]
            assert dicts(simulate_batch(points)) == expected
        finally:
            monkeypatch.delenv("REPRO_NO_KERNEL")
            kernel_module.reset()


@pytest.mark.skipif(not kernel_available(), reason="needs the C kernel")
class TestCompiledPlanBuilder:
    """The C ``build_pair_plan(s)`` vs the pure-Python plan composer."""

    def _mesh(self, factory, seed):
        placement = random_circuit_placement(factory.circuit, seed=seed)
        return placement, Mesh.from_placement(
            placement.positions,
            width=placement.width,
            height=placement.height,
        )

    def _pairs(self, mesh):
        cells = sorted(set(mesh.qubit_cells.values()))
        return [
            (a, b)
            for a in cells
            for b in cells
            if a != b and min(a[0], a[1], b[0], b[1]) >= 1
        ]

    @staticmethod
    def _as_bytes(packed):
        return packed if isinstance(packed, bytes) else packed.tobytes()

    def _assert_plans_equal(self, lhs, rhs):
        assert lhs.count == rhs.count
        assert self._as_bytes(lhs.packed) == self._as_bytes(rhs.packed)
        assert (lhs.probe_arr == rhs.probe_arr).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_pair_builder_parity(self, single_level_k8, seed):
        _placement, mesh = self._mesh(single_level_k8, seed)
        height, width = mesh.lattice_height, mesh.lattice_width
        compiled = batchsim._PlanCache(
            height, width, kernel=kernel_module.load()
        )
        python = batchsim._PlanCache(height, width, kernel=None)
        for source, target in self._pairs(mesh):
            self._assert_plans_equal(
                compiled.pair(mesh, source, target),
                python.pair(mesh, source, target),
            )

    def test_bulk_prefetch_matches_single_calls(self, single_level_k8):
        """``prefetch`` (one bulk kernel call) == per-pair ``pair`` calls."""
        _placement, mesh = self._mesh(single_level_k8, 2)
        height, width = mesh.lattice_height, mesh.lattice_width
        kern = kernel_module.load()
        prefetched = batchsim._PlanCache(height, width, kernel=kern)
        single = batchsim._PlanCache(height, width, kernel=kern)
        pairs = self._pairs(mesh)
        prefetched.prefetch(mesh, pairs)
        for source, target in pairs:
            self._assert_plans_equal(
                prefetched.pair(mesh, source, target),
                single.pair(mesh, source, target),
            )

    def test_prefetch_skips_border_and_degenerate_pairs(self, single_level_k4):
        """Padding-frame and coincident pairs never reach the bulk kernel.

        Qubit tiles live at odd/odd lattice cells, so neither shape occurs
        in real plan requests; ``prefetch`` must not hand them to the C
        builder (whose channel enumeration assumes coordinates >= 1).
        """
        _placement, mesh = self._mesh(single_level_k4, 0)
        height, width = mesh.lattice_height, mesh.lattice_width
        cache = batchsim._PlanCache(height, width, kernel=kernel_module.load())
        cache.prefetch(mesh, [((0, 1), (1, 1)), ((1, 1), (1, 1))])
        assert not cache._plans
