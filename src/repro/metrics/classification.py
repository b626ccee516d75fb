"""Fraud-detection metrics: F1, FPR, TPR/TNR, AUC-ROC (paper §IV-A2).

Conventions follow the paper: the malicious class (label 1) is the
positive class, and scores are reported as percentages in [0, 100] to
match the tables.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "confusion_matrix",
    "precision_recall_f1",
    "false_positive_rate",
    "true_rates",
    "roc_curve",
    "auc_roc",
    "evaluate_detector",
    "UndefinedMetricWarning",
]


class UndefinedMetricWarning(UserWarning):
    """A metric's denominator is empty — the value is reported as NaN.

    Historically these cases silently returned 0.0 (or clamped the
    denominator to 1), which is indistinguishable from a genuinely
    terrible detector.  NaN + this warning makes the degenerate input
    (no positive predictions, a single-class evaluation set, ...)
    visible instead of folding it into the score.
    """


def _undefined(metric: str, reason: str) -> float:
    warnings.warn(f"{metric} is undefined: {reason}; returning nan",
                  UndefinedMetricWarning, stacklevel=3)
    return float("nan")


@dataclasses.dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with malicious (1) as positive."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _validate(y_true, y_pred=None) -> tuple[np.ndarray, np.ndarray | None]:
    y_true = np.asarray(y_true, dtype=np.int64)
    if y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("y_true must be a non-empty 1-D array")
    if not np.isin(y_true, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    if y_pred is None:
        return y_true, None
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_pred.shape != y_true.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    if not np.isin(y_pred, (0, 1)).all():
        raise ValueError("predictions must be binary (0/1)")
    return y_true, y_pred


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    y_true, y_pred = _validate(y_true, y_pred)
    return ConfusionMatrix(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


def precision_recall_f1(y_true, y_pred) -> tuple[float, float, float]:
    """Return (precision, recall, F1) for the malicious class, in percent.

    Undefined components (no positive predictions, no positive truths)
    are NaN with an :class:`UndefinedMetricWarning`, never a silent 0.
    """
    cm = confusion_matrix(y_true, y_pred)
    precision = (cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp
                 else _undefined("precision", "no positive predictions"))
    recall = (cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn
              else _undefined("recall", "no positive ground-truth labels"))
    if np.isnan(precision) or np.isnan(recall):
        f1 = float("nan")
    else:
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
    return 100.0 * precision, 100.0 * recall, 100.0 * f1


def false_positive_rate(y_true, y_pred) -> float:
    """FPR = FP / (FP + TN), in percent (lower is better)."""
    cm = confusion_matrix(y_true, y_pred)
    negatives = cm.fp + cm.tn
    if not negatives:
        return 100.0 * _undefined("fpr", "no negative ground-truth labels")
    return 100.0 * cm.fp / negatives


def true_rates(y_true, y_pred) -> tuple[float, float]:
    """Return (TPR, TNR) in percent — Table III's label-corrector metrics."""
    cm = confusion_matrix(y_true, y_pred)
    tpr = (100.0 * cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn
           else 100.0 * _undefined("tpr", "no positive ground-truth labels"))
    tnr = (100.0 * cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp
           else 100.0 * _undefined("tnr", "no negative ground-truth labels"))
    return tpr, tnr


def roc_curve(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    """ROC points (FPR, TPR) as fractions, sweeping all score thresholds."""
    y_true, _ = _validate(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != y_true.shape:
        raise ValueError("scores must match y_true's shape")
    order = np.argsort(-scores, kind="stable")
    sorted_truth = y_true[order]
    tp = np.cumsum(sorted_truth)
    fp = np.cumsum(1 - sorted_truth)
    # Single-class inputs leave one axis with an empty denominator; the
    # old code clamped it to 1, which quietly pinned that axis to 0 and
    # biased AUC to 0 (or 100).  NaN marks the axis as undefined.
    p = int(sorted_truth.sum())
    n = int((1 - sorted_truth).sum())
    p = p if p else _undefined("tpr axis of roc_curve",
                               "no positive ground-truth labels")
    n = n if n else _undefined("fpr axis of roc_curve",
                               "no negative ground-truth labels")
    # Collapse threshold ties: keep the last point of each distinct score.
    distinct = np.r_[np.diff(scores[order]) != 0, True]
    tpr = np.r_[0.0, tp[distinct] / p]
    fpr = np.r_[0.0, fp[distinct] / n]
    return fpr, tpr


def auc_roc(y_true, scores) -> float:
    """Area under the ROC curve, in percent (Mann-Whitney equivalent)."""
    fpr, tpr = roc_curve(y_true, scores)
    return 100.0 * float(np.trapezoid(tpr, fpr))


def evaluate_detector(y_true, y_pred, scores=None) -> dict[str, float]:
    """All the paper's test metrics in one dict: F1, FPR, AUC-ROC."""
    _, _, f1 = precision_recall_f1(y_true, y_pred)
    out = {"f1": f1, "fpr": false_positive_rate(y_true, y_pred)}
    if scores is not None:
        out["auc_roc"] = auc_roc(y_true, scores)
    return out
