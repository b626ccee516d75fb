"""compute_dtype propagation from CLFDConfig into the models."""

import dataclasses

import numpy as np
import pytest

from repro.core import FraudDetector, LabelCorrector


@pytest.fixture()
def tiny32_config(tiny_config):
    return dataclasses.replace(tiny_config, compute_dtype="float32")


@pytest.mark.parametrize("maker", [LabelCorrector, FraudDetector])
def test_compute_dtype_reaches_parameters(maker, tiny32_config,
                                          tiny_vectorizer):
    model = maker(tiny32_config, tiny_vectorizer, np.random.default_rng(0))
    for p in model.encoder.parameters() + model.classifier.parameters():
        assert p.data.dtype == np.float32


def test_float32_encoder_accepts_float64_input(tiny32_config,
                                               tiny_vectorizer, tiny_data):
    train, _ = tiny_data
    lc = LabelCorrector(tiny32_config, tiny_vectorizer,
                        np.random.default_rng(0))
    x, lengths = tiny_vectorizer.transform(train, indices=np.arange(4))
    assert x.dtype == np.float64  # embeddings stay float64 on disk
    z = lc.encoder(x, lengths)
    assert z.data.dtype == np.float32
