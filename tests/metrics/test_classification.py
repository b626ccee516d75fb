"""Tests for classification metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    UndefinedMetricWarning,
    auc_roc,
    confusion_matrix,
    evaluate_detector,
    false_positive_rate,
    precision_recall_f1,
    roc_curve,
    true_rates,
)


def test_confusion_matrix_counts():
    cm = confusion_matrix([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 1, 1)
    assert cm.total == 5


def test_perfect_prediction():
    y = [0, 1, 0, 1]
    p, r, f1 = precision_recall_f1(y, y)
    assert (p, r, f1) == (100.0, 100.0, 100.0)
    assert false_positive_rate(y, y) == 0.0
    assert true_rates(y, y) == (100.0, 100.0)


def test_all_wrong_prediction():
    y_true = [0, 1]
    y_pred = [1, 0]
    _, _, f1 = precision_recall_f1(y_true, y_pred)
    assert f1 == 0.0
    assert false_positive_rate(y_true, y_pred) == 100.0


def test_f1_known_value():
    # tp=1, fp=1, fn=1 -> precision=recall=0.5 -> f1=50%
    _, _, f1 = precision_recall_f1([1, 1, 0, 0], [1, 0, 1, 0])
    assert f1 == pytest.approx(50.0)


def test_degenerate_no_positive_predictions():
    with pytest.warns(UndefinedMetricWarning, match="no positive predictions"):
        precision, _, f1 = precision_recall_f1([1, 1, 0], [0, 0, 0])
    assert np.isnan(precision)
    assert np.isnan(f1)


def test_true_rates_asymmetric():
    y_true = [1, 1, 1, 0, 0]
    y_pred = [1, 1, 0, 0, 1]
    tpr, tnr = true_rates(y_true, y_pred)
    assert tpr == pytest.approx(100 * 2 / 3)
    assert tnr == pytest.approx(50.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        confusion_matrix([], [])
    with pytest.raises(ValueError):
        confusion_matrix([0, 2], [0, 1])
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0])
    with pytest.raises(ValueError):
        precision_recall_f1([0, 1], [0, 3])


def test_auc_perfect_separation():
    assert auc_roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(100.0)


def test_auc_inverted_scores():
    assert auc_roc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == pytest.approx(0.0)


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=4000)
    scores = rng.random(4000)
    assert auc_roc(y, scores) == pytest.approx(50.0, abs=3.0)


def test_auc_handles_ties():
    # Half the positives above, constant scores give AUC 50.
    assert auc_roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(50.0)


def test_auc_equals_mann_whitney():
    """AUC must equal P(score_pos > score_neg) + 0.5 P(equal)."""
    rng = np.random.default_rng(1)
    y = np.array([0] * 50 + [1] * 30)
    scores = np.r_[rng.normal(0, 1, 50), rng.normal(1, 1, 30)]
    pos, neg = scores[y == 1], scores[y == 0]
    pairs = (pos[:, None] > neg[None, :]).mean() \
        + 0.5 * (pos[:, None] == neg[None, :]).mean()
    assert auc_roc(y, scores) == pytest.approx(100 * pairs, abs=1e-9)


def test_roc_curve_monotone_and_anchored():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=100)
    scores = rng.random(100)
    fpr, tpr = roc_curve(y, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == pytest.approx(1.0) and tpr[-1] == pytest.approx(1.0)
    assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()


def test_roc_validates_shapes():
    with pytest.raises(ValueError):
        roc_curve([0, 1], [0.5])


def test_evaluate_detector_keys():
    out = evaluate_detector([0, 1], [0, 1], scores=[0.1, 0.9])
    assert set(out) == {"f1", "fpr", "auc_roc"}
    out_no_scores = evaluate_detector([0, 1], [0, 1])
    assert "auc_roc" not in out_no_scores


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=40),
       st.integers(min_value=0, max_value=10_000))
def test_auc_bounds_property(labels, seed):
    """Property: AUC is within [0, 100], or NaN on single-class input."""
    labels = np.asarray(labels)
    scores = np.random.default_rng(seed).random(labels.size)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndefinedMetricWarning)
        value = auc_roc(labels, scores)
    if len(set(labels.tolist())) < 2:
        assert np.isnan(value)
    else:
        assert 0.0 <= value <= 100.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=50),
       st.integers(min_value=0, max_value=10_000))
def test_f1_fpr_bounds_property(n, seed):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, size=n)
    y_pred = rng.integers(0, 2, size=n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndefinedMetricWarning)
        _, _, f1 = precision_recall_f1(y_true, y_pred)
        fpr = false_positive_rate(y_true, y_pred)
    assert np.isnan(f1) or 0.0 <= f1 <= 100.0
    assert np.isnan(fpr) or 0.0 <= fpr <= 100.0
