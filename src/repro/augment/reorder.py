"""Session-reordering augmentation (CLDet [3], used in §IV-A2).

For each session, a random sub-sequence of ``sub_len`` consecutive
activities is selected and its activities are shuffled.  This creates a
second "view" of the session for SimCLR pre-training without changing
its activity multiset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reorder_ids"]


def reorder_ids(ids: np.ndarray, rng: np.random.Generator,
                sub_len: int = 3, length: int | None = None) -> np.ndarray:
    """Shuffle a random window of ``sub_len`` entries in a 1-D id array.

    ``length`` restricts the eligible region (for padded rows).  If the
    effective sequence is shorter than ``sub_len``, the whole sequence is
    shuffled instead — every session gets *some* augmentation.
    """
    if sub_len < 2:
        raise ValueError("sub_len must be >= 2 to have any effect")
    ids = np.array(ids, copy=True)
    n = int(length) if length is not None else len(ids)
    n = min(n, len(ids))
    if n <= 1:
        return ids
    window = min(sub_len, n)
    start = int(rng.integers(0, n - window + 1))
    segment = ids[start:start + window]
    rng.shuffle(segment)
    ids[start:start + window] = segment
    return ids
