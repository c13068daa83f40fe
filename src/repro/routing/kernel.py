"""Runtime-compiled C kernel for the batched simulator (optional).

:mod:`repro.routing.batchsim` prepares a group of same-circuit sweep
points; this module supplies the compiled event loop that runs them.  The
compile/cache/load machinery — host-compiler discovery, source-hash +
``REPRO_KERNEL_CFLAGS`` cache digest, on-disk ``.so`` cache, the
``REPRO_NO_KERNEL`` opt-out — lives in the shared
:class:`repro.kernels.runtime.KernelLoader`; this module keeps the
batchsim-specific ctypes facade and the historical public API
(:func:`load` / :func:`available` / :func:`reset`).
"""
from __future__ import annotations

import ctypes
import os
from typing import Optional

from ..kernels.runtime import KernelLoader

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "batchsim_kernel.c")

#: Number of int64 counter slots written by ``simulate_point`` (must match
#: the ``C_*`` enum in batchsim_kernel.c).
COUNTER_SLOTS = 9

#: ``simulate_point`` return codes.
OK = 0
MAX_CYCLES_EXCEEDED = 1
DEADLOCK = 2


class Kernel:
    """ctypes façade over the compiled library."""

    def __init__(self, lib: ctypes.CDLL, path: str) -> None:
        self.path = path
        self._build = lib.build_pair_plan
        self._build.restype = ctypes.c_int64
        self._build.argtypes = [ctypes.c_int64] * 8 + [ctypes.c_void_p] * 3
        self._build_bulk = lib.build_pair_plans
        self._build_bulk.restype = None
        self._build_bulk.argtypes = (
            [ctypes.c_void_p] + [ctypes.c_int64] * 5 + [ctypes.c_void_p] * 4
        )
        self._simulate = lib.simulate_point
        self._simulate.restype = ctypes.c_int64
        self._simulate.argtypes = (
            [ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 10
            + [ctypes.c_int64] * 3
            + [ctypes.c_void_p] * 4
        )

    def build_pair_plan(self, sr, sc, tr, tc, max_row, max_col,
                        height, width, rows_out, poff_out, pmask_out) -> int:
        return self._build(
            sr, sc, tr, tc, max_row, max_col, height, width,
            rows_out.ctypes.data, poff_out.ctypes.data, pmask_out.ctypes.data,
        )

    def build_pair_plans(self, pairs, m, max_row, max_col, height, width,
                         rows_out, poff_out, pmask_out, kept_out) -> None:
        """Bulk twin of :meth:`build_pair_plan`: m pairs, one library call."""
        self._build_bulk(
            pairs.ctypes.data, m, max_row, max_col, height, width,
            rows_out.ctypes.data, poff_out.ctypes.data, pmask_out.ctypes.data,
            kept_out.ctypes.data,
        )

    def simulate_point(self, n, kind, dur, block, count, max_legs,
                       star_start, star_count, star_ctrl,
                       succ_flat, succ_off, pred_count,
                       matrix, probe_off, probe_mask, pops,
                       span, height, max_cycles,
                       gate_start, gate_end, ready_time, counters) -> int:
        return self._simulate(
            n, kind.ctypes.data, dur.ctypes.data,
            block.ctypes.data, count.ctypes.data, max_legs,
            star_start.ctypes.data, star_count.ctypes.data,
            star_ctrl.ctypes.data,
            succ_flat.ctypes.data, succ_off.ctypes.data,
            pred_count.ctypes.data,
            matrix.ctypes.data, probe_off.ctypes.data,
            probe_mask.ctypes.data, pops.ctypes.data,
            span, height, max_cycles,
            gate_start.ctypes.data, gate_end.ctypes.data,
            ready_time.ctypes.data, counters.ctypes.data,
        )


_LOADER = KernelLoader(_SOURCE, stem="batchsim", facade=Kernel)


def load() -> Optional[Kernel]:
    """The loaded kernel, compiling on first call; None when unavailable."""
    return _LOADER.load()


def available() -> bool:
    """Whether the compiled fast path can run in this environment."""
    return _LOADER.available()


def reset() -> None:
    """Forget the cached load attempt (tests toggle REPRO_NO_KERNEL)."""
    _LOADER.reset()
