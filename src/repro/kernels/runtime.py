"""Loader shared by every runtime-compiled C kernel.

A :class:`KernelLoader` owns one kernel source file.  On first use the
source next to the owning module is built with the host C compiler into
a shared library and loaded via :mod:`ctypes`; the library is cached on
disk keyed by a hash of the source text and the compile flags, so
recompilation only happens when either changes.

Everything degrades gracefully but loudly: no compiler, no writable
cache directory, or a failed compile or load reports the kernel as
unavailable, callers stay on the pure-Python engines, and the loader
emits one :class:`RuntimeWarning` per kernel per process naming the
kernel and the reason.  Environment knobs (shared by all kernels):

* ``REPRO_NO_KERNEL=1`` disables every kernel outright, without a
  warning (a deliberate opt-out; tests use it to pin the Python paths);
* ``REPRO_KERNEL_CACHE`` overrides the cache directory (default:
  ``_kernel_cache/`` beside the source, falling back to a per-user temp
  directory when that is not writable);
* ``REPRO_KERNEL_CFLAGS`` appends extra compiler flags — CI uses it to
  build the kernels under ``-Wall -Wextra -Werror`` and the ASan/UBSan
  sanitizers.  The extra flags are folded into the cache digest, so a
  sanitized build never reuses (or poisons) the plain cached library.

Per-kernel ``base_cflags`` (e.g. ``-ffp-contract=off`` for the metrics
kernel, whose floating-point results must be bit-identical to the
Python engines) are folded into the digest the same way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import Any, Callable, Iterator, Optional, Sequence


def compiler_path() -> Optional[str]:
    """The host C compiler: ``$CC`` when set, else cc/gcc/clang on PATH."""
    explicit = os.environ.get("CC")
    if explicit:
        return shutil.which(explicit) or explicit
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def extra_cflags() -> list:
    """Extra compiler flags from ``REPRO_KERNEL_CFLAGS`` (shlex-free split)."""
    return os.environ.get("REPRO_KERNEL_CFLAGS", "").split()


def _cache_dirs(source_path: str) -> Iterator[str]:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        yield override
        return
    yield os.path.join(os.path.dirname(source_path), "_kernel_cache")
    yield os.path.join(
        tempfile.gettempdir(),
        f"repro-kernel-{os.getuid() if hasattr(os, 'getuid') else 'u'}",
    )


class _KernelUnavailable(Exception):
    """Why a kernel could not be built or loaded (the warning's reason)."""


class KernelLoader:
    """Compile-and-load manager for one C kernel source.

    ``facade`` wraps the loaded :class:`ctypes.CDLL` (plus the library
    path) into the kernel's typed Python interface; what :meth:`load`
    caches and returns is the facade instance.  The load attempt runs at
    most once per process (per :meth:`reset`), under a lock, so racing
    threads converge on one compile.  A failed attempt warns once per
    loader for the life of the process, even across resets.
    """

    def __init__(
        self,
        source_path: str,
        stem: str,
        facade: Callable[[ctypes.CDLL, str], Any],
        base_cflags: Sequence[str] = (),
    ) -> None:
        self.source_path = source_path
        self.stem = stem
        self._facade = facade
        self._base_cflags = tuple(base_cflags)
        self._lock = threading.Lock()
        self._cached: Optional[Any] = None
        self._tried = False
        self._warned = False

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _all_extra_cflags(self) -> list:
        return list(self._base_cflags) + extra_cflags()

    def _compile(self, digest: str) -> str:
        """Path of the built library; raises :class:`_KernelUnavailable`."""
        compiler = compiler_path()
        if compiler is None:
            raise _KernelUnavailable("no C compiler found (set CC)")
        for cache_dir in _cache_dirs(self.source_path):
            so_path = os.path.join(cache_dir, f"{self.stem}_{digest}.so")
            if os.path.exists(so_path):
                return so_path
            try:
                os.makedirs(cache_dir, exist_ok=True)
                fd, tmp_path = tempfile.mkstemp(suffix=".so", dir=cache_dir)
                os.close(fd)
            except OSError:
                continue
            try:
                proc = subprocess.run(
                    [compiler, "-O3", "-fPIC", "-shared"]
                    + self._all_extra_cflags()
                    + ["-o", tmp_path, self.source_path],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    detail = proc.stderr.decode("utf-8", "replace").strip()
                    raise _KernelUnavailable(
                        f"{compiler} exited with status {proc.returncode}"
                        + (f": {detail.splitlines()[0]}" if detail else "")
                    )
                os.replace(tmp_path, so_path)  # atomic: racing builds converge
                return so_path
            except (OSError, subprocess.SubprocessError) as error:
                raise _KernelUnavailable(f"{compiler} failed to run: {error}")
            finally:
                if os.path.exists(tmp_path):
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
        raise _KernelUnavailable("no writable kernel cache directory")

    def _build_and_load(self) -> Any:
        try:
            with open(self.source_path, "rb") as handle:
                source = handle.read()
        except OSError as error:
            raise _KernelUnavailable(f"cannot read the source: {error}")
        # The cache digest covers the source AND every non-default flag
        # (per-kernel base flags plus REPRO_KERNEL_CFLAGS): a sanitizer
        # build must not be served the plain cached .so (or vice versa).
        hasher = hashlib.sha256(source)
        hasher.update(b"\x00")
        hasher.update(" ".join(self._all_extra_cflags()).encode("utf-8"))
        digest = hasher.hexdigest()[:16]
        so_path = self._compile(digest)
        try:
            return self._facade(ctypes.CDLL(so_path), so_path)
        except OSError as error:
            raise _KernelUnavailable(f"cannot load {so_path}: {error}")

    def _try_load(self) -> Optional[Any]:
        if os.environ.get("REPRO_NO_KERNEL"):
            return None
        try:
            return self._build_and_load()
        except _KernelUnavailable as reason:
            if not self._warned:
                self._warned = True
                warnings.warn(
                    f"{self.stem} kernel unavailable ({reason}); "
                    f"using the pure-Python path",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def load(self) -> Optional[Any]:
        """The loaded kernel facade, compiling on first call; None when unavailable."""
        with self._lock:
            if not self._tried:
                self._tried = True
                self._cached = self._try_load()
            return self._cached

    def available(self) -> bool:
        """Whether the compiled fast path can run in this environment."""
        return self.load() is not None

    def reset(self) -> None:
        """Forget the cached load attempt (tests toggle REPRO_NO_KERNEL)."""
        with self._lock:
            self._cached = None
            self._tried = False
