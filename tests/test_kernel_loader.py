"""Kernel fallback is loud: one RuntimeWarning per kernel per process.

A host without a working C compiler runs the pure-Python engines, which
are exact but much slower; :class:`repro.kernels.runtime.KernelLoader`
says so once per kernel, naming the kernel and the reason.  The
``REPRO_NO_KERNEL=1`` opt-out is deliberate and stays silent.
"""

from __future__ import annotations

import shutil
import warnings

import pytest

from repro.graphs import interaction_graph
from repro.graphs.metrics import MappingCostTracker
from repro.kernels import metrics as metrics_kernel
from repro.kernels import runtime
from repro.mapping import random_circuit_placement
from repro.routing import SimulatorConfig, simulate, simulate_batch
from repro.routing import kernel as batchsim_kernel

LOADERS = {
    "batchsim": batchsim_kernel._LOADER,
    "metrics": metrics_kernel._LOADER,
}


@pytest.fixture
def fresh_loaders(monkeypatch):
    """Module loaders with no cached attempt and no warning issued yet."""
    for loader in LOADERS.values():
        monkeypatch.setattr(loader, "_warned", False)
        loader.reset()
    yield
    monkeypatch.undo()
    for loader in LOADERS.values():
        loader.reset()


def _kernel_warnings(caught):
    return [
        str(w.message)
        for w in caught
        if issubclass(w.category, RuntimeWarning) and "kernel" in str(w.message)
    ]


def _exercise_both_kernels(factory):
    """Drive the simulator and the tracker through their kernel lookups."""
    placement = random_circuit_placement(factory.circuit, seed=5)
    points = [
        (factory.circuit, placement, SimulatorConfig(max_candidates=mc))
        for mc in (2, 8)
    ]
    batched = [r.to_dict() for r in simulate_batch(points)]
    assert batched == [simulate(*point).to_dict() for point in points]
    graph = interaction_graph(factory.circuit)
    for _ in range(2):
        MappingCostTracker(graph, placement.as_float_positions())


def test_missing_compiler_warns_once_per_kernel(
    single_level_k4, fresh_loaders, monkeypatch
):
    monkeypatch.delenv("REPRO_NO_KERNEL", raising=False)
    monkeypatch.setattr(runtime, "compiler_path", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _exercise_both_kernels(single_level_k4)
        # A reset re-attempts the load but must not warn again.
        for loader in LOADERS.values():
            loader.reset()
        _exercise_both_kernels(single_level_k4)
    messages = _kernel_warnings(caught)
    assert len(messages) == 2, messages
    for stem in LOADERS:
        (message,) = [m for m in messages if m.startswith(f"{stem} kernel")]
        assert "no C compiler" in message
        assert "pure-Python" in message


def test_failed_compile_names_the_reason(fresh_loaders, monkeypatch, tmp_path):
    failing = shutil.which("false")
    if failing is None:
        pytest.skip("needs a `false` executable")
    monkeypatch.delenv("REPRO_NO_KERNEL", raising=False)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(runtime, "compiler_path", lambda: failing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert metrics_kernel.load() is None
        assert metrics_kernel.load() is None
    (message,) = _kernel_warnings(caught)
    assert message.startswith("metrics kernel unavailable")
    assert "exited with status" in message


def test_no_kernel_opt_out_is_silent(single_level_k4, fresh_loaders, monkeypatch):
    monkeypatch.setenv("REPRO_NO_KERNEL", "1")
    monkeypatch.setattr(runtime, "compiler_path", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _exercise_both_kernels(single_level_k4)
    assert _kernel_warnings(caught) == []
