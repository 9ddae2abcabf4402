"""The machine and library record attached to every benchmark result.

``run.py`` pins the BLAS/OpenMP pools to one thread through environment
variables before numpy is first imported; :func:`record` reads back what the
loaded OpenBLAS libraries actually run with, so a run whose pin did not take
is reported as such instead of silently measuring a multi-threaded BLAS.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model():
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for entry in entries:
        if _read(f"{base}/{entry}/level").strip() == "3":
            return _read(f"{base}/{entry}/size").strip() or "unknown"
    return "unknown"


def _process_threads():
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def _openblas_libraries():
    """Paths of the OpenBLAS shared objects mapped into this process."""
    paths = set()
    for line in _read("/proc/self/maps").splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in fields[-1].lower():
            paths.add(fields[-1])
    return sorted(paths)


def _openblas_runtime(path):
    """(threads, config string) reported by one OpenBLAS build, or Nones."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None, None
    threads = config = None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", "_64_", ""):
            fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
            fn = getattr(lib, f"{prefix}get_config{suffix}", None)
            if fn is not None and config is None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                config = fn().decode("ascii", "replace").strip()
    return threads, config


def _blas_version(module):
    try:
        info = module.show_config(mode="dicts")
        return info["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        return None


def record() -> dict:
    """Environment of this process; call after numpy and scipy are imported."""
    import numpy
    import scipy

    blas = []
    for path in _openblas_libraries():
        threads, config = _openblas_runtime(path)
        blas.append({"library": os.path.basename(path), "threads": threads,
                     "config": config})
    pinned = all(os.environ.get(var) == "1" for var in THREAD_VARS)
    measured = [b["threads"] for b in blas if b["threads"] is not None]
    return {
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "threads_verified": pinned and bool(measured) and all(t == 1 for t in measured),
        "process_threads": _process_threads(),
        "openblas": blas,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": _blas_version(scipy),
        "loadavg_start": list(os.getloadavg()),
    }
