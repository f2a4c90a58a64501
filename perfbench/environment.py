"""What a result was measured on: versions, BLAS threads, cores and CPU model.

The thread variables are recorded as the user set them; the benchmark never
changes them. On the 2-core reference box OpenBLAS's second thread makes the
small-matrix workload slower and costs twice the CPU, so results taken with
different thread counts are not comparable.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(path for path in paths if path.startswith("/"))


def _symbol(lib, stem: str, restype):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def blas_libraries() -> list[dict]:
    """Config string and effective thread count of each OpenBLAS loaded in this process."""
    found = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _symbol(lib, "get_config", ctypes.c_char_p)
        found.append(
            {
                "library": os.path.basename(path),
                "config": config.decode() if config else None,
                "threads": _symbol(lib, "get_num_threads", ctypes.c_int),
            }
        )
    return found


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def describe() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
    }
