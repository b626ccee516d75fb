"""Noise-robust classification losses (paper §III-A1).

All losses take the classifier's softmax *probabilities* (a Tensor of
shape ``(batch, classes)``) and a target distribution (a NumPy array of
the same shape: one-hot for plain labels, or a mixup interpolation
``m̃ᵢ = λẽᵢ + (1-λ)ẽⱼ``).  The mixup-GCE loss of Eq. 2 is therefore
:func:`gce_loss` evaluated on mixed probabilities/targets produced by
:mod:`repro.augment.mixup`.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, as_tensor

__all__ = ["gce_loss", "cce_loss"]

_EPS = 1e-12

# Floor for probabilities that enter a *power* ``p^q``: the gradient
# ``q·p^(q-1)`` at the old floor of 1e-12 reaches ~1e9 as q→0, which
# swamps every other gradient in the batch (gradcheck showed deviations
# of ~3e6 at q=1e-3).  1e-4 matches the floor the symmetric-CE loss
# already applies to its reversed term, so the two paths now agree.
_PROB_FLOOR = 1e-4


def _check_inputs(probs: Tensor, targets: np.ndarray) -> np.ndarray:
    # Targets follow the probability dtype: a float64 target tensor
    # would silently promote a float32 graph.
    targets = np.asarray(targets, dtype=probs.data.dtype)
    if probs.shape != targets.shape:
        raise ValueError(
            f"probs {probs.shape} and targets {targets.shape} must match"
        )
    return targets


def gce_loss(probs: Tensor, targets, q: float = 0.7) -> Tensor:
    """Generalized cross-entropy (Eq. 1 / Eq. 2 with mixed targets).

    ``l = Σ_k (t_k / q) · (1 - p_k^q)`` with ``q ∈ (0, 1]``.
    ``q → 0`` recovers categorical cross-entropy (Theorem 1); ``q = 1``
    is the MAE/unhinged loss.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    targets = _check_inputs(probs, targets)
    probs = as_tensor(probs).clip(_PROB_FLOOR, 1.0)
    per_sample = (Tensor(targets) * (1.0 - probs ** q) * (1.0 / q)).sum(axis=-1)
    return per_sample.mean()


def cce_loss(probs: Tensor, targets) -> Tensor:
    """Categorical cross-entropy over probabilities with soft targets.

    ``l = -Σ_k t_k log p_k`` — the noise-*sensitive* loss the paper uses
    as the "w/o GCE" ablation and as the q→0 limit of GCE.
    """
    targets = _check_inputs(probs, targets)
    probs = as_tensor(probs).clip(_EPS, 1.0)
    per_sample = -(Tensor(targets) * probs.log()).sum(axis=-1)
    return per_sample.mean()
