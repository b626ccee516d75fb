"""Mixup sampling for the mixup-GCE loss (paper §III-A1, Algorithm 1).

The paper's mixup strategy differs from vanilla mixup [37] in one key
way: the partner xⱼ is always drawn from the *opposite noisy class*
(ỹⱼ ≠ ỹᵢ), so every interpolated sample mixes the two classes.  The
interpolation coefficient is λ ~ Beta(β, β); the experiments use β = 16,
which concentrates λ near 0.5 (strong interpolation) to suppress label
memorization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..nn import one_hot

__all__ = ["MixupBatch", "sample_mixup"]


@dataclasses.dataclass
class MixupBatch:
    """Partner indices, λ draws and mixed targets for one batch."""

    partner: np.ndarray        # (n,) index of x_j within the batch
    lam: np.ndarray            # (n,) λ draws
    mixed_targets: np.ndarray  # (n, 2) m̃_i = λ ẽ_i + (1-λ) ẽ_j


def sample_mixup(labels, rng: np.random.Generator, beta: float = 0.3,
                 num_classes: int = 2,
                 anchor_dominant: bool = True) -> MixupBatch:
    """Draw mixup partners and coefficients for a batch of noisy labels.

    Partners are sampled uniformly from batch members with a different
    label; if a batch is single-class (possible under extreme imbalance),
    partners fall back to uniform sampling over the whole batch, which
    degenerates to vanilla mixup for those rows.  Labels must lie in
    ``[0, num_classes)``; anything else is a ValueError.

    ``anchor_dominant=True`` applies λ ← max(λ, 1-λ), the standard
    convention in noisy-label mixup implementations (e.g. DivideMix):
    the anchor always receives the majority of the interpolation weight,
    so the effective class prior of the mixed targets stays anchored to
    the data instead of collapsing to 50/50 under opposite-class pairing.

    .. note::
       §III-A1 of the paper defines β ∈ [0, 1] (a U-shaped Beta, λ near
       the endpoints) while §IV-A2 sets β = 16 (λ concentrated at 0.5).
       The two are inconsistent: with β=16 every mixed target is ≈(½, ½),
       so classifier confidences can never approach 1, contradicting the
       paper's own Theorem 5 analysis of high-confidence corrections.
       This implementation therefore follows the formal definition and
       defaults to β = 0.3; β = 16 remains available for comparison.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = labels.shape[0]
    if n < 2:
        raise ValueError("mixup needs at least two samples")

    # Classes in ascending order, as np.unique would give them, so the
    # rng.choice draws come in the same order; one mask per class.
    partner = np.empty(n, dtype=np.int64)
    assigned = 0
    for cls in range(num_classes):
        member = labels == cls
        rows = member.nonzero()[0]
        if not rows.size:
            continue
        pool = rows if rows.size == n else (~member).nonzero()[0]
        partner[rows] = rng.choice(pool, size=rows.size)
        assigned += rows.size
    if assigned != n:
        raise ValueError(f"labels must lie in [0, {num_classes})")

    lam = rng.beta(beta, beta, size=n)
    if anchor_dominant:
        lam = np.maximum(lam, 1.0 - lam)
    targets = one_hot(labels, num_classes)
    mixed = lam[:, None] * targets + (1.0 - lam)[:, None] * targets[partner]
    return MixupBatch(partner=partner, lam=lam, mixed_targets=mixed)

