"""Machine record written beside every benchmark run."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """(version string, runtime thread count) of numpy's bundled OpenBLAS."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    threads = None
    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = int(fn())
    return version, threads


def record(blas_threads_requested: int, cli_threads: int) -> dict:
    import numpy as np

    version, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads_requested": blas_threads_requested,
        "blas_threads_runtime": threads,
        "cli_threads": cli_threads,
        "load": "closed loop, one client, one process",
    }
