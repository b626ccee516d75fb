"""One BLAS thread per worker process: the one module that decides it.

Every worker process the repository starts itself runs one BLAS
thread: a grid or a cluster gets its parallelism from its N workers,
and N processes each running a BLAS pool as wide as the host only fight
over the same cores.  A thread variable the operator set
(``_BLAS_THREAD_VARS``) always wins, so it stays the one override.

====================================  =====  ===========================
Start site                            Start  Pin
====================================  =====  ===========================
``ClusterEngine`` scoring workers     spawn  :func:`spawn_env`
``GridExecutor`` local grid workers   fork   :func:`pin_forked_worker`
====================================  =====  ===========================

A spawned child loads BLAS fresh and reads its thread count from the
environment, so it is started with the pins in ``os.environ``.  A forked
child inherits the BLAS its parent already loaded, which read the
environment long before, so the worker's first call pins the loaded
OpenBLAS through its ``set_num_threads`` entry point (``ctypes``).
Processes the operator starts (``repro join``) and in-process runs keep
BLAS's default.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

__all__ = ["blas_threads", "pin_forked_worker", "spawn_env"]

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
# Serialises the temporary os.environ edit around a worker's start.
_SPAWN_ENV_LOCK = threading.Lock()
# OpenBLAS exports its API under a build-specific prefix and suffix,
# e.g. NumPy's wheels: scipy_openblas_set_num_threads64_.
_OPENBLAS_PREFIXES = ("", "scipy_")
_OPENBLAS_SUFFIXES = ("", "64_")


def _worker_blas_env(environ) -> dict[str, str]:
    """The BLAS thread variables a worker starts with.

    Each is ``"1"`` unless the operator already set it in ``environ``,
    in which case their value wins.
    """
    return {name: environ.get(name, "1") for name in _BLAS_THREAD_VARS}


@contextlib.contextmanager
def spawn_env():
    """``os.environ`` with the worker pins, around a spawned ``start()``.

    The child inherits ``os.environ`` at ``start()``: add the pins the
    operator left unset, then take them out of ours again.
    """
    with _SPAWN_ENV_LOCK:
        added = {name: value
                 for name, value in _worker_blas_env(os.environ).items()
                 if name not in os.environ}
        os.environ.update(added)
        try:
            yield
        finally:
            for name in added:
                del os.environ[name]


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:  # no procfs: nothing to find
        return []
    paths = []
    for entry in fields:
        path = entry[5].strip() if len(entry) == 6 else ""
        if "openblas" in os.path.basename(path) and path not in paths:
            paths.append(path)
    return paths


def _openblas_function(name: str):
    """``openblas_<name>`` of the loaded OpenBLAS, or ``None``."""
    for path in _loaded_openblas():
        try:
            # RTLD_NOLOAD: the library already mapped, never a new copy.
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                function = getattr(lib, f"{prefix}openblas_{name}{suffix}",
                                   None)
                if function is not None:
                    return function
    return None


def _set_threads(count: int) -> bool:
    setter = _openblas_function("set_num_threads")
    if setter is None:
        return False
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(count)
    return True


def blas_threads() -> int | None:
    """The loaded OpenBLAS's thread count, or ``None`` if none is found."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


def pin_forked_worker(environ=os.environ) -> bool:
    """First call of a forked worker: one BLAS thread in that worker.

    A no-op, returning ``False``, when the operator set a thread
    variable in ``environ`` (the worker keeps what it inherited) or no
    OpenBLAS entry point is found.
    """
    if any(name in environ for name in _BLAS_THREAD_VARS):
        return False
    return _set_threads(1)
