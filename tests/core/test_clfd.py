"""Integration tests for the CLFD facade."""

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.data import apply_uniform_noise, make_dataset
from repro.metrics import evaluate_detector
from repro.train import TrainingInterrupted, TrainRun
from tests.core.conftest import TINY


@pytest.fixture(scope="module")
def fitted_clfd():
    rng = np.random.default_rng(21)
    train, test = make_dataset("umd-wikipedia", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.2, rng=rng)
    model = CLFD(CLFDConfig(**TINY)).fit(train, rng=rng)
    return model, train, test


def test_predict_before_fit_raises():
    model = CLFD(CLFDConfig(**TINY))
    with pytest.raises(RuntimeError):
        model.predict(None)


@pytest.mark.parametrize("overrides,stop_after", [
    ({}, "detector/supcon@1"),
    ({"use_fraud_detector": False}, "corrector/head@1"),
])
def test_interrupted_fit_leaves_no_stage_to_score(tmp_path, tiny_data,
                                                  overrides, stop_after):
    model = CLFD(CLFDConfig(**{**TINY, **overrides}))
    run = TrainRun(tmp_path / "ckpt", stop_after=stop_after)
    with pytest.raises(TrainingInterrupted):
        model.fit(tiny_data[0], rng=np.random.default_rng(0), run=run)
    with pytest.raises(RuntimeError, match="CLFD.fit"):
        model.inference_forward()
    with pytest.raises(RuntimeError, match="CLFD.fit"):
        model.predict(tiny_data[1])


def test_fit_populates_components(fitted_clfd):
    model, train, _ = fitted_clfd
    assert model.vectorizer is not None
    assert model.label_corrector is not None
    assert model.fraud_detector is not None
    assert model.corrected_labels.shape == (len(train),)
    assert model.confidences.shape == (len(train),)


def test_predict_contract(fitted_clfd):
    model, _, test = fitted_clfd
    labels, scores = model.predict(test)
    assert labels.shape == (len(test),)
    metrics = evaluate_detector(test.labels(), labels, scores)
    assert 0 <= metrics["f1"] <= 100
    assert 0 <= metrics["auc_roc"] <= 100


def test_correction_quality_keys(fitted_clfd):
    model, train, _ = fitted_clfd
    quality = model.correction_quality(train)
    assert set(quality) == {"tpr", "tnr"}
    assert 0 <= quality["tpr"] <= 100


def test_correction_quality_requires_fit():
    model = CLFD(CLFDConfig(**TINY))
    with pytest.raises(RuntimeError):
        model.correction_quality(None)


def test_without_label_corrector_uses_noisy_labels():
    rng = np.random.default_rng(3)
    train, test = make_dataset("cert", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.1, rng=rng)
    model = CLFD(CLFDConfig(**{**TINY, "use_label_corrector": False}))
    model.fit(train, rng=rng)
    assert model.label_corrector is None
    np.testing.assert_array_equal(model.corrected_labels,
                                  train.noisy_labels())
    np.testing.assert_allclose(model.confidences, 1.0)
    labels, _ = model.predict(test)
    assert labels.shape == (len(test),)


def test_without_fraud_detector_infers_via_corrector():
    rng = np.random.default_rng(4)
    train, test = make_dataset("cert", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.1, rng=rng)
    model = CLFD(CLFDConfig(**{**TINY, "use_fraud_detector": False}))
    model.fit(train, rng=rng)
    assert model.fraud_detector is None
    labels, scores = model.predict(test)
    assert labels.shape == (len(test),)


def test_disabling_both_components_rejected():
    with pytest.raises(ValueError):
        CLFDConfig(**{**TINY, "use_fraud_detector": False,
                      "use_label_corrector": False})


def test_end_to_end_beats_chance_at_low_noise(fitted_clfd):
    """At η=0.2 on separable data the full pipeline must show real signal."""
    model, _, test = fitted_clfd
    labels, scores = model.predict(test)
    metrics = evaluate_detector(test.labels(), labels, scores)
    assert metrics["auc_roc"] > 60.0


def test_default_rng_used_when_none():
    rng = np.random.default_rng(6)
    train, _ = make_dataset("cert", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.1, rng=rng)
    model = CLFD(CLFDConfig(**TINY)).fit(train)  # no rng passed
    assert model.corrected_labels is not None
