"""Confidence-calibration diagnostics for the label corrector.

The weighted supervised contrastive loss (Eq. 5) assumes the corrector's
confidence cᵢ tracks the probability its corrected label is right —
Theorem 5's analysis partitions sessions by exactly that.  These tools
measure how well that assumption holds:

* **expected calibration error (ECE)** — count-weighted gap between
  confidence and empirical accuracy per confidence bin;
* **threshold sweep** — precision/recall of the corrections when only
  corrections above a confidence threshold are accepted (the τ analysis
  of §VII's filtered loss, measured rather than theorised).
"""

from __future__ import annotations

import numpy as np

__all__ = ["expected_calibration_error", "confidence_threshold_sweep"]


def _validate(confidences, correct) -> tuple[np.ndarray, np.ndarray]:
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape or confidences.ndim != 1:
        raise ValueError("confidences and correct must be equal-length 1-D")
    if confidences.size == 0:
        raise ValueError("empty inputs")
    if (confidences < 0).any() or (confidences > 1).any():
        raise ValueError("confidences must lie in [0, 1]")
    return confidences, correct


def expected_calibration_error(confidences, correct, bins: int = 10) -> float:
    """ECE: count-weighted mean |confidence - accuracy| over bins."""
    confidences, correct = _validate(confidences, correct)
    edges = np.linspace(0.0, 1.0, bins + 1)
    which = np.clip(np.digitize(confidences, edges[1:-1]), 0, bins - 1)
    total = 0.0
    for b in range(bins):
        members = which == b
        if members.any():
            gap = abs(confidences[members].mean() - correct[members].mean())
            total += members.mean() * gap
    return float(total)


def confidence_threshold_sweep(confidences, correct,
                               thresholds=None) -> list[dict[str, float]]:
    """Accuracy/coverage of corrections accepted above each threshold.

    Measures the trade-off §VII analyses for the filtered loss: high τ
    keeps only accurate corrections but covers few sessions.
    """
    confidences, correct = _validate(confidences, correct)
    if thresholds is None:
        thresholds = np.linspace(0.5, 0.95, 10)
    rows = []
    for tau in thresholds:
        kept = confidences >= tau
        rows.append({
            "threshold": float(tau),
            "coverage": float(kept.mean()),
            "accuracy": float(correct[kept].mean()) if kept.any() else float("nan"),
        })
    return rows
