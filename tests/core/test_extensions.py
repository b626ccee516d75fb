"""Tests for the future-work extensions: noise-rate estimation,
co-teaching correction, and model persistence."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    CLFD,
    CLFDConfig,
    CoTeachingCLFD,
    CoTeachingCorrector,
    estimate_noise_rates,
    load_clfd,
    recommend_inversion,
    save_clfd,
)
from repro.data import (
    SessionVectorizer,
    apply_uniform_noise,
    make_dataset,
)
from tests.core.conftest import TINY


# ----------------------------------------------------------------------
# Noise-rate estimation
# ----------------------------------------------------------------------
def test_estimate_noise_rates_with_perfect_corrector(tiny_data):
    """A corrector that recovers ground truth estimates the true rates."""
    train, _ = tiny_data
    estimate = estimate_noise_rates(train, train.labels())
    truth_eta = (train.labels() != train.noisy_labels()).mean()
    assert estimate.eta == pytest.approx(truth_eta)
    assert estimate.disagreement == pytest.approx(truth_eta)


def test_estimate_noise_rates_confidence_weighting(tiny_data):
    train, _ = tiny_data
    corrected = train.labels()
    # Confidence zero on disagreeing rows should suppress the estimate.
    disagree = corrected != train.noisy_labels()
    conf = np.where(disagree, 1e-9, 1.0)
    estimate = estimate_noise_rates(train, corrected, confidences=conf)
    assert estimate.eta < estimate_noise_rates(train, corrected).eta


def test_estimate_noise_rates_validation(tiny_data):
    train, _ = tiny_data
    with pytest.raises(ValueError):
        estimate_noise_rates(train, np.zeros(3))
    with pytest.raises(ValueError):
        estimate_noise_rates(train, train.labels(), confidences=np.ones(2))


def test_recommend_inversion_rule():
    from repro.core import NoiseRateEstimate

    low = NoiseRateEstimate(eta=0.3, eta_10=0.3, eta_01=0.3,
                            disagreement=0.3)
    high = NoiseRateEstimate(eta=0.7, eta_10=0.7, eta_01=0.7,
                             disagreement=0.7)
    assert not recommend_inversion(low)
    assert recommend_inversion(high)


def test_noise_estimation_end_to_end():
    """With a trained corrector, η̂ should land in the right ballpark."""
    rng = np.random.default_rng(5)
    train, _ = make_dataset("cert", rng, scale=0.05)
    apply_uniform_noise(train, eta=0.3, rng=rng)
    model = CLFD(CLFDConfig.fast(classifier_epochs=60)).fit(
        train, rng=np.random.default_rng(5))
    estimate = estimate_noise_rates(train, model.corrected_labels,
                                    model.confidences)
    assert 0.1 < estimate.eta < 0.5
    assert not recommend_inversion(estimate)


# ----------------------------------------------------------------------
# Co-teaching
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def co_teaching(tiny_config_module, tiny_data_module):
    train, _ = tiny_data_module
    vec = SessionVectorizer.fit(train, tiny_config_module.word2vec,
                                rng=np.random.default_rng(5))
    corrector = CoTeachingCorrector(tiny_config_module, vec,
                                    np.random.default_rng(0))
    corrector.fit(train)
    return corrector


@pytest.fixture(scope="module")
def tiny_config_module():
    return CLFDConfig(**TINY)


@pytest.fixture(scope="module")
def tiny_data_module():
    rng = np.random.default_rng(11)
    train, test = make_dataset("cert", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.2, rng=rng)
    return train, test


def test_co_teaching_requires_fit(tiny_config_module, tiny_data_module):
    train, _ = tiny_data_module
    vec = SessionVectorizer.fit(train, tiny_config_module.word2vec,
                                rng=np.random.default_rng(5))
    corrector = CoTeachingCorrector(tiny_config_module, vec,
                                    np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        corrector.correct(train)


def test_co_teaching_contract(co_teaching, tiny_data_module):
    train, _ = tiny_data_module
    labels, confidences = co_teaching.correct(train)
    assert labels.shape == (len(train),)
    assert set(np.unique(labels)) <= {0, 1}
    assert ((confidences >= 0) & (confidences <= 1)).all()


def test_co_teaching_agreement_rate(co_teaching, tiny_data_module):
    train, _ = tiny_data_module
    rate = co_teaching.agreement_rate(train)
    assert 0.0 <= rate <= 1.0


def test_co_teaching_agreement_confidence_product_rule(co_teaching,
                                                       tiny_data_module):
    """Where the two correctors agree, fused confidence follows the
    renormalised product rule — never below the weaker individual one."""
    train, _ = tiny_data_module
    (la, ca), (lb, cb) = (c.correct(train) for c in co_teaching.correctors)
    fused_labels, fused_conf = co_teaching.correct(train)
    agree = la == lb
    assert (fused_labels[agree] == la[agree]).all()
    expected = ca * cb / np.maximum(ca * cb + (1 - ca) * (1 - cb), 1e-12)
    np.testing.assert_allclose(fused_conf[agree], expected[agree])


def test_co_teaching_clfd_end_to_end(tiny_config_module, tiny_data_module):
    train, test = tiny_data_module
    model = CoTeachingCLFD(tiny_config_module).fit(
        train, rng=np.random.default_rng(0))
    labels, scores = model.predict(test)
    assert labels.shape == (len(test),)
    quality = model.correction_quality(train)
    assert 0 <= quality["tnr"] <= 100


def test_co_teaching_clfd_refuses_without_fraud_detector(tiny_config_module):
    # The fused corrector is no inference stage: "w/o FD" could not score.
    config = dataclasses.replace(tiny_config_module, use_fraud_detector=False)
    with pytest.raises(ValueError, match="use_fraud_detector"):
        CoTeachingCLFD(config)


def test_co_teaching_clfd_requires_fit(tiny_config_module):
    model = CoTeachingCLFD(tiny_config_module)
    with pytest.raises(RuntimeError):
        model.predict(None)
    with pytest.raises(RuntimeError):
        model.correction_quality(None)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def test_save_load_roundtrip(tmp_path, tiny_config_module, tiny_data_module):
    train, test = tiny_data_module
    model = CLFD(tiny_config_module).fit(train, rng=np.random.default_rng(0))
    labels_before, scores_before = model.predict(test)

    path = tmp_path / "clfd.npz"
    save_clfd(model, path)
    restored = load_clfd(path)
    labels_after, scores_after = restored.predict(test)

    np.testing.assert_array_equal(labels_before, labels_after)
    np.testing.assert_allclose(scores_before, scores_after)


def test_save_unfitted_raises(tiny_config_module):
    with pytest.raises(ValueError):
        save_clfd(CLFD(tiny_config_module), "/tmp/never.npz")


def test_load_preserves_config(tmp_path, tiny_config_module,
                               tiny_data_module):
    train, _ = tiny_data_module
    model = CLFD(tiny_config_module).fit(train, rng=np.random.default_rng(0))
    path = tmp_path / "clfd.npz"
    save_clfd(model, path)
    restored = load_clfd(path)
    assert restored.config.hidden_size == tiny_config_module.hidden_size
    assert restored.config.q == tiny_config_module.q
    assert restored.vectorizer.max_len == model.vectorizer.max_len


def test_load_without_detector(tmp_path, tiny_config_module,
                               tiny_data_module):
    train, test = tiny_data_module
    config = CLFDConfig(**{**TINY, "use_fraud_detector": False})
    model = CLFD(config).fit(train, rng=np.random.default_rng(0))
    path = tmp_path / "corrector_only.npz"
    save_clfd(model, path)
    restored = load_clfd(path)
    assert restored.fraud_detector is None
    labels, _ = restored.predict(test)
    assert labels.shape == (len(test),)
