"""Noise-rate estimation (the paper's first future-work item).

§V: *"we plan to extend CLFD to model session specific noise rates."*
This module estimates

* the **global uniform rate** η̂ — the disagreement between the trained
  label corrector and the given noisy labels, corrected for the
  corrector's own error rate;
* **class-dependent rates** η̂₁₀ / η̂₀₁ — the same disagreement split by
  the corrected class.

§IV-A2 motivates the global estimate: when η̂ > 0.5, the noisy labels
should be inverted before training; :func:`recommend_inversion`
implements that rule.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..data.sessions import MALICIOUS, NORMAL, SessionDataset

__all__ = [
    "NoiseRateEstimate",
    "estimate_noise_rates",
    "recommend_inversion",
]


@dataclasses.dataclass(frozen=True)
class NoiseRateEstimate:
    """Estimated noise rates plus the evidence they came from."""

    eta: float              # overall flip-rate estimate
    eta_10: float           # P(flip | y = malicious)
    eta_01: float           # P(flip | y = normal)
    disagreement: float     # raw corrector-vs-noisy disagreement


def estimate_noise_rates(dataset: SessionDataset, corrected_labels,
                         confidences=None) -> NoiseRateEstimate:
    """Estimate noise rates by comparing corrected and noisy labels.

    The corrector's prediction ŷ approximates the ground truth, so the
    fraction of sessions where ŷ disagrees with the noisy label ỹ
    estimates η.  When ``confidences`` are supplied, each disagreement is
    weighted by the corrector's confidence, discounting corrections the
    corrector itself is unsure about.
    """
    corrected = np.asarray(corrected_labels, dtype=np.int64)
    noisy = dataset.noisy_labels()
    if corrected.shape != noisy.shape:
        raise ValueError("corrected labels must align with the dataset")
    disagree = (corrected != noisy).astype(np.float64)

    if confidences is not None:
        conf = np.asarray(confidences, dtype=np.float64)
        if conf.shape != noisy.shape:
            raise ValueError("confidences must align with the dataset")
        # Weighted estimate: a disagreement found with confidence c is
        # evidence c of a flip and (1-c) of a corrector error.
        weights = conf
    else:
        weights = np.ones_like(disagree)

    def weighted_rate(mask: np.ndarray) -> float:
        if not mask.any():
            return 0.0
        return float((disagree[mask] * weights[mask]).sum()
                     / weights[mask].sum())

    eta = weighted_rate(np.ones_like(disagree, dtype=bool))
    eta_10 = weighted_rate(corrected == MALICIOUS)
    eta_01 = weighted_rate(corrected == NORMAL)
    return NoiseRateEstimate(eta=eta, eta_10=eta_10, eta_01=eta_01,
                             disagreement=float(disagree.mean()))


def recommend_inversion(estimate: NoiseRateEstimate,
                        threshold: float = 0.5) -> bool:
    """§IV-A2's rule: invert the noisy labels when η̂ exceeds 0.5."""
    return estimate.eta > threshold
