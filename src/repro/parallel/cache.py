"""Content-keyed on-disk cache of completed grid cells.

One JSON file per cell, named by the :func:`~repro.parallel.tasks.task_key`
content hash, so interrupted sweeps resume where they stopped and a
repeated table invocation (same configs, same seeds, same scale) skips
straight to aggregation.  Only *successful* runs are stored — failures
are always retried by the next sweep.

Crash posture: :mod:`repro.durable`.  Corrupt or unreadable files are
misses and get overwritten.  The same directory may be shared by
several hosts (NFS + a multi-host coordinator sweep): records are
self-contained and idempotent, so concurrent writers can only race to
produce identical bytes.  Orphaned temp files are swept on open and on
:meth:`RunCache.clear`, age-gated so an in-flight writer on another
host is never clobbered.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from ..durable import atomic_write

__all__ = ["RunCache", "DEFAULT_CACHE_DIR", "TMP_SWEEP_AGE_S"]

DEFAULT_CACHE_DIR = ".repro-cache"

# A writer holds its .tmp for milliseconds.
# Anything this much older is an orphan from a crashed process, not an
# in-flight write on a slow NFS peer.
TMP_SWEEP_AGE_S = 3600.0


class RunCache:
    """Directory of ``<key>.json`` run records."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR,
                 tmp_sweep_age_s: float = TMP_SWEEP_AGE_S):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tmp_sweep_age_s = float(tmp_sweep_age_s)
        self.sweep_orphans()

    def path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Return the stored record, or None on miss/corruption."""
        try:
            with open(self.path(key)) as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def put(self, key: str, record: dict) -> None:
        """Atomically persist a record under ``key``."""
        payload = dict(record)
        payload.setdefault("key", key)
        payload.setdefault("created", time.time())
        text = json.dumps(payload, sort_keys=True)
        atomic_write(self.path(key), lambda fh: fh.write(text.encode()),
                     durable=False)

    def __contains__(self, key: str) -> bool:
        # Must agree with get(): a torn/corrupt record on disk is a
        # miss, not a hit — path.exists() alone would make the executor
        # skip the cell as "cached" and then aggregate a null result.
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def sweep_orphans(self, min_age_s: float | None = None) -> int:
        """Remove ``*.tmp`` leftovers older than ``min_age_s`` seconds.

        A ``put`` whose writer died before its cleanup strands its temp
        file; under a shared multi-host cache dir
        those accumulate forever.  The age gate keeps concurrent
        in-flight writers on other hosts safe.  Returns the number of
        files removed.
        """
        if min_age_s is None:
            min_age_s = self.tmp_sweep_age_s
        cutoff = time.time() - min_age_s
        removed = 0
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass  # raced with another sweeper or a writer's rename
        return removed

    def clear(self) -> int:
        """Delete every record (and all temp leftovers, regardless of
        age — clear() means the caller wants an empty directory);
        returns how many records were removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self.sweep_orphans(min_age_s=0.0)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunCache({str(self.root)!r}, {len(self)} records)"
