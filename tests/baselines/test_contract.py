"""Contract tests every baseline must satisfy (fit/predict interface)."""

import hashlib

import numpy as np
import pytest

from repro.baselines import BASELINES, BaselineConfig
from repro.data import Word2VecConfig


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_fit_predict_contract(name, small_config, noisy_split):
    train, test = noisy_split
    model = BASELINES[name](small_config)
    assert model.name == name
    model.fit(train, rng=np.random.default_rng(0))
    labels, scores = model.predict(test)
    assert labels.shape == (len(test),)
    assert scores.shape == (len(test),)
    assert set(np.unique(labels)) <= {0, 1}
    assert np.isfinite(scores).all()


# SHA-256 of each baseline's ``predict_proba(test)`` bytes on the shared
# fixtures, fitted with ``default_rng(0)``.  A change that moves any
# baseline's bits (and so every RunCache record of it) fails here.
PROBA_SHA256 = {
    "CLDet": "c0250df76353af192bb18986e0bbeafd5b1ed85315ba320c8d80e72983513705",
    "CTRR": "a096f3e26bc97c510234c996402b0cd88efdfdaf5dfc42d693dcd637492ccf6e",
    "DeepLog": "cf5540956128aec243352140f619167cdc2049c9bff64fb7ba9ab8131c609b56",
    "DivMix": "c1f7144fb220c6868c21ea27c1c32d058f52e51d859ead8baf6bd977a4bc8ffb",
    "Few-Shot": "06ebe8178706c258158b2eac432c6e3af51783ed8b0808286e3c8fa4232e83d6",
    "LogBert": "e7892553cffa6dbb433fc57af7b1a27be46ca12c2fba9296181d424222f051ae",
    "Sel-CL": "1bba00bdcc1073decff4dd823ffdbc3b9cf00cf28377264e99a6de6281583581",
    "ULC": "e98962b74f4447d6df321cba2efbe0137a3953bc407a3acc90c0a37948d33616",
}


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_predict_proba_golden(name, small_config, noisy_split):
    train, test = noisy_split
    model = BASELINES[name](small_config)
    model.fit(train, rng=np.random.default_rng(0))
    probs = model.predict_proba(test)
    assert probs.dtype == np.float64 and probs.shape == (len(test), 2)
    digest = hashlib.sha256(np.ascontiguousarray(probs).tobytes())
    assert digest.hexdigest() == PROBA_SHA256[name]


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_predict_before_fit_raises(name, small_config):
    model = BASELINES[name](small_config)
    with pytest.raises(RuntimeError):
        model.predict(None)


def test_registry_covers_paper_models():
    assert set(BASELINES) == {
        "DivMix", "ULC", "Sel-CL", "CTRR",
        "Few-Shot", "CLDet", "DeepLog", "LogBert",
    }


def test_baseline_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(epochs=0)
    with pytest.raises(ValueError):
        BaselineConfig(embedding_dim=8, word2vec=Word2VecConfig(dim=16))


def test_default_config_created():
    model = BASELINES["CTRR"]()
    assert model.config.word2vec is not None
