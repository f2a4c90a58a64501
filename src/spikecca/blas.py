"""Pin every OpenBLAS loaded in this process to one thread for a block of work.

The package's problems are many small factorizations; on a 2-core box a
second OpenBLAS thread makes each of them slower and costs twice the CPU, and
the last bits of a threaded factorization depend on the thread count. numpy
and scipy each load their own OpenBLAS, so all of them are pinned. Other BLAS
builds (MKL, Accelerate) are not found and keep the caller's thread count.
"""

from __future__ import annotations

import contextlib
import ctypes


def loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(path for path in paths if path.startswith("/"))


def _symbol(lib, stem: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def thread_controls() -> list[tuple | None]:
    """(get_num_threads, set_num_threads) of each loaded OpenBLAS; None where one is missing."""
    controls = []
    for path in loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # mapped, but not a loadable library: no symbols
            lib = None
        get, put = _symbol(lib, "get_num_threads"), _symbol(lib, "set_num_threads")
        if get is None or put is None:
            controls.append(None)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        controls.append((get, put))
    return controls


@contextlib.contextmanager
def single_thread():
    """Pin every loaded OpenBLAS to 1 thread; restore each one's count on exit.

    Yields True when at least one OpenBLAS is loaded and every one was pinned.
    The thread count is process-wide state: do not enter this from two threads
    at once.
    """
    controls = thread_controls()
    pinned = [c for c in controls if c is not None]
    saved = []
    try:
        for get, put in pinned:
            saved.append((put, get()))
            put(1)
        yield bool(controls) and len(pinned) == len(controls)
    finally:
        for put, count in reversed(saved):
            put(count)
