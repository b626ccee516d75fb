"""One conformance test drives every model through the Estimator protocol.

CLFD, all eight baselines and the co-teaching corrector are exercised
through the exact same ``fit`` / ``predict`` / ``predict_proba`` calls —
no ``isinstance`` checks, no per-model branches.  This is the contract
the experiment runner and the serving layer rely on.
"""

import numpy as np
import pytest

from repro.baselines import BaselineConfig, Estimator
from repro.core import CLFDConfig
from repro.core.co_teaching import CoTeachingCorrector
from repro.data import (
    SessionVectorizer,
    Word2VecConfig,
    apply_uniform_noise,
    make_dataset,
)
from repro.experiments import ExperimentSettings, estimator_registry


class _TinySettings(ExperimentSettings):
    """Experiment settings shrunk to seconds-per-model for this test."""

    def clfd_config(self) -> CLFDConfig:
        return CLFDConfig(
            embedding_dim=12, hidden_size=16, batch_size=32,
            aux_batch_size=8, ssl_epochs=1, supcon_epochs=2,
            classifier_epochs=20, word2vec=Word2VecConfig(dim=12, epochs=1),
        )

    def baseline_config(self) -> BaselineConfig:
        return BaselineConfig(
            embedding_dim=12, hidden_size=16, batch_size=32, epochs=2,
            word2vec=Word2VecConfig(dim=12, epochs=1),
        )


@pytest.fixture(scope="module")
def split():
    rng = np.random.default_rng(17)
    train, test = make_dataset("openstack", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.2, rng=rng)
    return train, test


def _estimators(train):
    """Every estimator in the repo, keyed by name."""
    settings = _TinySettings()
    factories = dict(estimator_registry(settings))

    def co_teaching():
        vectorizer = SessionVectorizer.fit(
            train, settings.clfd_config().word2vec,
            rng=np.random.default_rng(5))
        return CoTeachingCorrector(settings.clfd_config(), vectorizer,
                                   np.random.default_rng(5))

    factories["CoTeaching"] = co_teaching
    return factories


def _names():
    settings = _TinySettings()
    return sorted(estimator_registry(settings)) + ["CoTeaching"]


@pytest.mark.parametrize("name", _names())
def test_estimator_protocol_conformance(name, split):
    """fit -> predict -> predict_proba, identically for every model."""
    train, test = split
    estimator = _estimators(train)[name]()

    # Structural conformance (typing.Protocol, runtime-checkable would
    # need isinstance — we assert the structure directly instead).
    for method in ("fit", "predict", "predict_proba"):
        assert callable(getattr(estimator, method)), (
            f"{name} lacks Estimator.{method}")

    fitted = estimator.fit(train, rng=np.random.default_rng(0))
    assert fitted is estimator, f"{name}.fit must return self"

    labels, scores = estimator.predict(test)
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    assert labels.shape == (len(test),)
    assert scores.shape == (len(test),)
    assert set(np.unique(labels)) <= {0, 1}
    assert np.isfinite(scores).all()

    probs = estimator.predict_proba(test)
    assert isinstance(probs, np.ndarray)
    assert probs.shape == (len(test), 2)
    assert np.isfinite(probs).all()
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_registry_rejects_unknown_models():
    with pytest.raises(KeyError, match="NoSuchModel"):
        estimator_registry(_TinySettings())["NoSuchModel"]


def test_registry_lists_paper_models():
    registry = estimator_registry(_TinySettings())
    assert set(registry) == {
        "CLFD", "DivMix", "ULC", "Sel-CL", "CTRR",
        "Few-Shot", "CLDet", "DeepLog", "LogBert",
    }


def test_protocol_is_structural():
    """Estimator is a typing.Protocol: conformance needs no inheritance."""
    for factory in estimator_registry(_TinySettings()).values():
        assert Estimator not in type(factory()).__mro__
