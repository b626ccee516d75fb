"""Tests for confidence-calibration diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    confidence_threshold_sweep,
    expected_calibration_error,
)


@pytest.fixture
def perfectly_calibrated():
    """Correctness drawn exactly at the stated confidence."""
    rng = np.random.default_rng(0)
    conf = rng.uniform(0.5, 1.0, size=5000)
    correct = rng.random(5000) < conf
    return conf, correct


def test_ece_low_when_calibrated(perfectly_calibrated):
    conf, correct = perfectly_calibrated
    assert expected_calibration_error(conf, correct) < 0.05


def test_ece_high_when_overconfident():
    conf = np.full(1000, 0.99)
    correct = np.random.default_rng(1).random(1000) < 0.5
    assert expected_calibration_error(conf, correct) > 0.4


def test_threshold_sweep_monotone_coverage(perfectly_calibrated):
    conf, correct = perfectly_calibrated
    rows = confidence_threshold_sweep(conf, correct)
    coverages = [row["coverage"] for row in rows]
    assert all(a >= b for a, b in zip(coverages, coverages[1:]))
    # Accuracy should rise (roughly) with the threshold when calibrated.
    assert rows[-1]["accuracy"] > rows[0]["accuracy"]


def test_threshold_sweep_empty_tail():
    conf = np.array([0.55, 0.6])
    correct = np.array([True, False])
    rows = confidence_threshold_sweep(conf, correct, thresholds=[0.9])
    assert rows[0]["coverage"] == 0.0
    assert np.isnan(rows[0]["accuracy"])


def test_validation():
    with pytest.raises(ValueError):
        expected_calibration_error([], [])
    with pytest.raises(ValueError):
        expected_calibration_error([0.5], [True, False])
    with pytest.raises(ValueError):
        expected_calibration_error([1.5], [True])
