"""Tests for CLFDConfig validation and presets."""

import pytest

from repro.core import CLFDConfig
from repro.data import Word2VecConfig


def test_defaults_follow_paper():
    cfg = CLFDConfig()
    assert cfg.embedding_dim == 50
    assert cfg.hidden_size == 50
    assert cfg.batch_size == 100       # R
    assert cfg.aux_batch_size == 20    # M
    assert cfg.temperature == 1.0      # α
    assert cfg.q == 0.7
    assert cfg.lr == 0.005
    assert cfg.ssl_epochs == 10
    assert cfg.classifier_epochs == 500
    assert cfg.reorder_sub_len == 3


def test_word2vec_dim_synced():
    cfg = CLFDConfig()
    assert cfg.word2vec.dim == cfg.embedding_dim
    with pytest.raises(ValueError):
        CLFDConfig(embedding_dim=32, word2vec=Word2VecConfig(dim=16))


def test_fast_preset_is_small_but_valid():
    cfg = CLFDConfig.fast()
    assert cfg.embedding_dim < 50
    assert cfg.classifier_epochs < 500
    assert cfg.q == 0.7  # loss hyper-parameters preserved


def test_fast_preset_accepts_overrides():
    cfg = CLFDConfig.fast(classifier_loss="cce", supcon_variant="filtered")
    assert cfg.classifier_loss == "cce"
    assert cfg.supcon_variant == "filtered"


@pytest.mark.parametrize("kwargs", [
    dict(classifier_loss="hinge"),
    dict(supcon_variant="other"),
    dict(inference="knn"),
    dict(q=0.0),
    dict(q=1.5),
    dict(batch_size=1),
    dict(ssl_epochs=0),
    dict(classifier_epochs=0),
    dict(compute_dtype="float16"),
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        CLFDConfig(**kwargs)


def test_numerics_defaults_and_overrides():
    cfg = CLFDConfig()
    assert cfg.compute_dtype == "float64"
    cfg32 = CLFDConfig.fast(compute_dtype="float32")
    assert cfg32.compute_dtype == "float32"
