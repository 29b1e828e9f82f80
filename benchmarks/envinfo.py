"""Thread caps and the machine record written next to every result.

cap_threads() must run before numpy is first imported: BLAS reads its thread
variables once, when the library loads.
"""

from __future__ import annotations

import os
import platform

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def cap_threads():
    """One BLAS/OpenMP thread unless the caller set a count; never above nproc.

    The workloads run one process with one caller, and a 64-row minibatch
    gains nothing from a BLAS thread pool, so one thread also keeps the
    timings steady.
    """
    limit = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(max(1, min(wanted, limit)))
    os.environ.pop("CDNN_WORKERS", None)


def _first_line_value(path, key):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def record():
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "nproc": nproc(),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name") or platform.processor(),
        "l2_cache": _read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}" if blas else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cdnn_workers": os.environ.get("CDNN_WORKERS"),
    }
