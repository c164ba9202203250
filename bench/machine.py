"""Machine record attached to every benchmark result, so that a run on a
busy shared box, or with another BLAS, is visible."""

from __future__ import annotations

import ctypes
import os
import platform
import sys

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def host_record():
    """Taken by the parent process at start, before any child runs."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_1min_at_start": os.getloadavg()[0],
            "thread_env": {k: os.environ[k] for k in THREAD_ENV
                           if k in os.environ}}


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def library_record():
    """Taken inside a child, after numpy and scipy are loaded."""
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    blas["threads"] = _blas_threads()
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "blas": blas}
