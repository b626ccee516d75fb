"""Evaluation metrics (F1, FPR, TPR/TNR, AUC-ROC) and decision thresholds."""

from .thresholds import best_f1_threshold, operating_points, threshold_at_fpr
from .classification import (
    ConfusionMatrix,
    UndefinedMetricWarning,
    auc_roc,
    confusion_matrix,
    evaluate_detector,
    false_positive_rate,
    precision_recall_f1,
    roc_curve,
    true_rates,
)

__all__ = [
    "ConfusionMatrix", "confusion_matrix",
    "precision_recall_f1", "false_positive_rate", "true_rates",
    "roc_curve", "auc_roc", "evaluate_detector",
    "UndefinedMetricWarning",
    "best_f1_threshold", "threshold_at_fpr", "operating_points",
]
