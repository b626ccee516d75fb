"""Host fingerprint and process-tree readings from ``/proc``."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import threading

from . import ROOT

__all__ = ["fingerprint", "process_tree", "tree_cpu_s", "tree_peak_rss_mb",
           "self_peak_rss_mb", "RssSampler", "THREAD_ENV"]

# Recorded as found; the benchmark never sets them, because pinning BLAS
# threads would hide the oversubscription users actually see.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_TICK = os.sysconf("SC_CLK_TCK")


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # NumPy < 1.26 prints instead
        return {"name": None, "version": None}


def fingerprint(seed: int | None = None, params: dict | None = None) -> dict:
    """What a record needs to say which host and code produced it."""
    import numpy as np

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "seed": seed,
        "params": params or {},
    }


# ----------------------------------------------------------------------
# Process trees
# ----------------------------------------------------------------------
def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(parents.get(pid, []))
    return tree


def tree_cpu_s(pids: list[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM)."""
    return sum(_status_kb(pid, "VmHWM:") for pid in pids) / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class RssSampler:
    """Polls the resident set of this process's tree; keeps the peak sum.

    For trees whose children exit before they can be read (pool
    workers), sampling is the only way to see their resident memory.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            rss = sum(_status_kb(pid, "VmRSS:") for pid in process_tree(me))
            self.peak_mb = max(self.peak_mb, rss / 1024.0)
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
