"""Behavioural tests for baseline-specific mechanisms."""

import numpy as np
import pytest

from repro.baselines import (
    BaselineConfig,
    DeepLogModel,
    DivMixModel,
    LogBertModel,
    SelCLModel,
    ULCModel,
    fit_two_component_gmm,
    knn_correct_labels,
)
from repro.data import Word2VecConfig, make_dataset


# ----------------------------------------------------------------------
# DivideMix's GMM loss split
# ----------------------------------------------------------------------
def test_gmm_separates_bimodal_losses():
    rng = np.random.default_rng(0)
    low = rng.normal(0.1, 0.03, size=200)
    high = rng.normal(2.0, 0.3, size=100)
    values = np.r_[low, high]
    clean_prob, _ = fit_two_component_gmm(values)
    assert clean_prob[:200].mean() > 0.9
    assert clean_prob[200:].mean() < 0.1


def test_gmm_constant_input_is_uniform():
    clean_prob, _ = fit_two_component_gmm(np.full(10, 0.5))
    np.testing.assert_allclose(clean_prob, 0.5)


def test_gmm_probabilities_valid():
    rng = np.random.default_rng(1)
    clean_prob, _ = fit_two_component_gmm(rng.exponential(size=50))
    assert ((clean_prob >= 0) & (clean_prob <= 1)).all()


# ----------------------------------------------------------------------
# Sel-CL's kNN correction
# ----------------------------------------------------------------------
def test_knn_correction_fixes_isolated_flips():
    """A flipped label inside a tight cluster is corrected by its
    neighbours."""
    rng = np.random.default_rng(2)
    a = rng.normal(loc=(5.0, 0.0), scale=0.1, size=(20, 2))
    b = rng.normal(loc=(-5.0, 0.0), scale=0.1, size=(20, 2))
    features = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    noisy = labels.copy()
    noisy[3] = 1  # one flip inside cluster a
    corrected = knn_correct_labels(features, noisy, k=5)
    assert corrected[3] == 0


def test_knn_correction_majority_wipes_minority_when_mixed():
    """With interleaved classes, kNN votes drift to the majority — the
    session-diversity failure mode the paper describes."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(50, 2))  # no cluster structure
    labels = np.array([1] * 5 + [0] * 45)
    corrected = knn_correct_labels(features, labels, k=10)
    assert corrected.sum() < 5  # minority labels mostly erased


def test_knn_handles_small_k():
    features = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    corrected = knn_correct_labels(features, labels, k=10)  # k > n-1
    assert corrected.shape == (3,)


# ----------------------------------------------------------------------
# DeepLog / LogBert anomaly scoring
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lm_setup():
    rng = np.random.default_rng(4)
    train, test = make_dataset("openstack", rng, scale=0.02)
    config = BaselineConfig(embedding_dim=12, hidden_size=16, epochs=3,
                            batch_size=32,
                            word2vec=Word2VecConfig(dim=12, epochs=1))
    return train, test, config


def test_deeplog_threshold_calibrated(lm_setup):
    train, test, config = lm_setup
    model = DeepLogModel(config)
    model.fit(train, rng=np.random.default_rng(0))
    assert model.miss_threshold is not None
    assert 0.0 <= model.miss_threshold <= 1.0


def test_deeplog_scores_malicious_higher(lm_setup):
    """On clean labels, malicious sessions must get higher miss scores."""
    train, test, config = lm_setup
    model = DeepLogModel(config)
    model.fit(train, rng=np.random.default_rng(0))
    _, scores = model.predict(test)
    y = test.labels()
    assert scores[y == 1].mean() > scores[y == 0].mean()


def test_deeplog_predictions_reproducible(lm_setup):
    train, test, config = lm_setup
    model = DeepLogModel(config)
    model.fit(train, rng=np.random.default_rng(0))
    labels_a, scores_a = model.predict(test)
    labels_b, scores_b = model.predict(test)
    np.testing.assert_array_equal(labels_a, labels_b)
    np.testing.assert_allclose(scores_a, scores_b)


def test_logbert_mask_respects_lengths(lm_setup):
    train, _, config = lm_setup
    model = LogBertModel(config)
    model.vectorizer = None  # not needed for _mask
    model.mask_id = 99
    ids = np.array([[1, 2, 3, 0, 0]])
    lengths = np.array([3])
    rng = np.random.default_rng(5)
    for _ in range(10):
        masked, mask = model._mask(ids, lengths, rng)
        assert not mask[0, 3:].any()        # padding never masked
        assert mask[0, :3].any()            # at least one real position
        assert (masked[0, ~mask[0]] == ids[0, ~mask[0]]).all()


def test_logbert_end_to_end(lm_setup):
    train, test, config = lm_setup
    model = LogBertModel(config)
    model.fit(train, rng=np.random.default_rng(0))
    labels, scores = model.predict(test)
    assert model.miss_threshold is not None
    assert np.isfinite(scores).all()


# ----------------------------------------------------------------------
# ULC / DivMix internals
# ----------------------------------------------------------------------
def test_ulc_records_corrected_labels(noisy_split, small_config):
    train, _ = noisy_split
    model = ULCModel(small_config, warmup_epochs=1)
    model.fit(train, rng=np.random.default_rng(0))
    assert model.corrected_labels is not None
    assert model.corrected_labels.shape == (len(train),)


def test_divmix_trains_two_networks(noisy_split, small_config):
    train, _ = noisy_split
    model = DivMixModel(small_config, warmup_epochs=1)
    model.fit(train, rng=np.random.default_rng(0))
    assert len(model.nets) == 2
    # The two co-teaching networks must not be identical.
    a = model.nets[0].state_dict()
    b = model.nets[1].state_dict()
    assert any(not np.allclose(a[m][k], b[m][k]) for m in a for k in a[m])


def test_selcl_confident_selection(noisy_split, small_config):
    train, _ = noisy_split
    model = SelCLModel(small_config, ssl_epochs=1, supcon_epochs=1,
                       classifier_epochs=5)
    model.fit(train, rng=np.random.default_rng(0))
    assert model.confident_mask is not None
    assert model.confident_mask.dtype == bool
    assert model.corrected_labels.shape == (len(train),)
