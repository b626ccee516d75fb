"""Tests for representation-space diagnostics."""

import numpy as np
import pytest

from repro.analysis import (
    RepresentationReport,
    centroid_separability,
    cosine_separation_gap,
    knn_label_purity,
    representation_report,
    silhouette_score,
)


@pytest.fixture
def clustered():
    rng = np.random.default_rng(0)
    a = rng.normal(loc=(4.0, 0.0, 0.0), scale=0.3, size=(20, 3))
    b = rng.normal(loc=(-4.0, 0.0, 0.0), scale=0.3, size=(20, 3))
    return np.vstack([a, b]), np.array([0] * 20 + [1] * 20)


@pytest.fixture
def mixed():
    rng = np.random.default_rng(1)
    return rng.normal(size=(40, 3)), np.array([0, 1] * 20)


def test_cosine_gap_orders_structured_vs_random(clustered, mixed):
    assert cosine_separation_gap(*clustered) > 0.5
    assert abs(cosine_separation_gap(*mixed)) < 0.3


def test_silhouette_high_for_tight_clusters(clustered, mixed):
    assert silhouette_score(*clustered) > 0.7
    assert silhouette_score(*mixed) < 0.2


def test_knn_purity_bounds(clustered, mixed):
    assert knn_label_purity(*clustered) > 0.95
    purity = knn_label_purity(*mixed)
    assert 0.0 <= purity <= 1.0


def test_knn_purity_k_larger_than_n(clustered):
    features, labels = clustered
    rows = np.array([0, 1, 20, 21])  # two samples of each class
    value = knn_label_purity(features[rows], labels[rows], k=100)
    assert 0.0 <= value <= 1.0


def test_centroid_separability(clustered, mixed):
    assert centroid_separability(*clustered) > 5.0
    assert centroid_separability(*mixed) < 1.0


def test_report_aggregates(clustered):
    features, labels = clustered
    report = representation_report(features, labels)
    assert isinstance(report, RepresentationReport)
    assert report.num_samples == 40
    text = str(report)
    assert "cosine gap" in text and "silhouette" in text


def test_validation_errors(clustered):
    features, labels = clustered
    with pytest.raises(ValueError):
        cosine_separation_gap(features, labels[:-1])
    with pytest.raises(ValueError):
        silhouette_score(features, np.zeros(40, dtype=int))  # one class
    with pytest.raises(ValueError):
        representation_report(features[:, 0], labels)


def test_supcon_training_improves_report():
    """Integration: the fraud detector's sup-con stage should improve the
    representation diagnostics over the untrained encoder."""
    from repro.core import CLFDConfig, FraudDetector
    from repro.data import SessionVectorizer, make_dataset
    from tests.core.conftest import TINY

    rng = np.random.default_rng(3)
    train, _ = make_dataset("cert", rng, scale=0.02)
    config = CLFDConfig(**TINY)
    vec = SessionVectorizer.fit(train, config.word2vec,
                                rng=np.random.default_rng(5))
    fd = FraudDetector(config, vec, np.random.default_rng(0))
    before = fd.inference_forward().encode_dataset(train)
    gap_before = cosine_separation_gap(before, train.labels())
    fd._pretrain_supcon(train, train.labels(), np.ones(len(train)))
    after = fd.inference_forward().encode_dataset(train)
    gap_after = cosine_separation_gap(after, train.labels())
    assert gap_after > gap_before
