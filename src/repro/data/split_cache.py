"""Memoized dataset splits for the experiment grid.

Every grid cell of the paper's tables trains on the same underlying
``(dataset, seed, scale)`` split — only the noise process and the model
differ — yet the sequential harness historically regenerated the split
(and refit word2vec inside each estimator) for every single cell.  This
module generates each split once per process and hands out *copies*, so
noise processes (which overwrite ``Session.noisy_label`` in place) never
touch the cached originals.

Bit-identical guarantee: callers that previously did ::

    rng = np.random.default_rng(seed)
    train, test = make_dataset(name, rng, scale=scale)
    noise(train, rng)                      # continues the same stream

get the exact same results through :func:`cached_splits`, because the
generator state *after* dataset generation is captured on first build
and restored on every reuse — the noise draw consumes the identical
stream whether the split came from the cache or was freshly generated.

The cache is per-process module state (each grid worker warms its own)
and LRU-bounded so long multi-scale sweeps cannot grow memory without
limit.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict

import numpy as np

from .generators import make_dataset
from .sessions import SessionDataset

__all__ = ["cached_splits", "clear_split_cache", "split_cache_info"]

# LRU bound: a full table sweep touches (3 datasets x seeds) splits at
# one scale; 16 entries cover that with headroom while keeping worst
# case memory small.
MAX_ENTRIES = 16

_LOCK = threading.Lock()
_CACHE: OrderedDict[tuple, tuple[SessionDataset, SessionDataset, dict]] = \
    OrderedDict()
_HITS = 0
_MISSES = 0


def cached_splits(name: str, seed: int, scale: float,
                  max_session_length: int = 16,
                  ) -> tuple[SessionDataset, SessionDataset, np.random.Generator]:
    """Return ``(train, test, rng)`` for a named benchmark split.

    ``train`` and ``test`` are private copies (safe to mutate); ``rng``
    is positioned exactly where ``make_dataset`` left it, so applying a
    noise process to ``train`` with it reproduces the uncached path
    bit for bit.
    """
    global _HITS, _MISSES
    key = (str(name), int(seed), float(scale), int(max_session_length))
    with _LOCK:
        entry = _CACHE.get(key)
        if entry is not None:
            _CACHE.move_to_end(key)
            _HITS += 1
    if entry is None:
        gen_rng = np.random.default_rng(seed)
        train, test = make_dataset(name, gen_rng, scale=scale,
                                   max_session_length=max_session_length)
        state = gen_rng.bit_generator.state
        entry = (train, test, state)
        with _LOCK:
            _MISSES += 1
            _CACHE[key] = entry
            _CACHE.move_to_end(key)
            while len(_CACHE) > MAX_ENTRIES:
                _CACHE.popitem(last=False)
    train, test, state = entry
    rng = np.random.default_rng(seed)
    rng.bit_generator.state = copy.deepcopy(state)
    return train.copy(), test.copy(), rng


def clear_split_cache() -> None:
    """Drop every cached split (tests, and cold benchmark phases)."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0


def split_cache_info() -> dict[str, int]:
    """Hit/miss/size counters (observability and tests)."""
    with _LOCK:
        return {"hits": _HITS, "misses": _MISSES, "size": len(_CACHE)}
