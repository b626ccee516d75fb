"""The layout of a fitted CLFD stage's state, pinned by literals.

Phase checkpoints, ``.npz`` archives and ``model_fingerprint`` all read
a stage's ``state_dict()``.  The key sets below are the ones earlier
versions wrote, so their checkpoints still resume and their archives
still load.
"""

import numpy as np
import pytest

from repro.core import (CLFD, CLFDConfig, CoTeachingCLFD, FraudDetector,
                        LabelCorrector, save_clfd)
from repro.train import CheckpointManager, TrainRun

from .conftest import TINY

QUICK = {**TINY, "ssl_epochs": 1, "supcon_epochs": 1, "classifier_epochs": 2}

PHASE_KEYS = {
    "vectorizer": {"max_len", "rng", "vectors", "vocab"},
    "corrector": {"classifier", "confidences", "encoder", "head_history",
                  "labels", "rng", "ssl_history"},
    "detector": {"centroids", "classifier", "encoder", "head_history", "rng",
                 "supcon_history"},
}
COTEACH_KEYS = {"confidences", "correctors", "labels", "rng"}

_ENCODER = {"rnn.cells.0.bias", "rnn.cells.0.w_h", "rnn.cells.0.w_x",
            "rnn.cells.1.bias", "rnn.cells.1.w_h", "rnn.cells.1.w_x"}
_CLASSIFIER = {"fc1.bias", "fc1.weight", "fc2.bias", "fc2.weight"}
ARCHIVE_KEYS = (
    {"meta", "word2vec/vectors", "detector/centroids"}
    | {f"{stage}/encoder/{key}" for stage in ("corrector", "detector")
       for key in _ENCODER}
    | {f"{stage}/classifier/{key}" for stage in ("corrector", "detector")
       for key in _CLASSIFIER})


def _phases(model, tiny_data, tmp_path) -> CheckpointManager:
    model.fit(tiny_data[0], rng=np.random.default_rng(3),
              run=TrainRun(tmp_path / "ckpt"))
    return CheckpointManager(tmp_path / "ckpt")


def test_clfd_phase_state_keys(tiny_data, tmp_path):
    checkpoints = _phases(CLFD(CLFDConfig(**QUICK)), tiny_data, tmp_path)
    for tag, keys in PHASE_KEYS.items():
        assert set(checkpoints.load(tag)) == keys, tag


def test_co_teaching_phase_state_keys(tiny_data, tmp_path):
    checkpoints = _phases(CoTeachingCLFD(CLFDConfig(**QUICK)), tiny_data,
                          tmp_path)
    state = checkpoints.load("coteach")
    assert set(state) == COTEACH_KEYS
    assert [set(saved) for saved in state["correctors"]] == \
        [{"encoder", "classifier"}] * 2
    assert not checkpoints.has("corrector")


def test_archive_keys(tiny_data, tmp_path):
    model = CLFD(CLFDConfig(**QUICK)).fit(tiny_data[0],
                                          rng=np.random.default_rng(3))
    with np.load(save_clfd(model, tmp_path / "m.npz")) as archive:
        assert set(archive.files) == ARCHIVE_KEYS


@pytest.mark.parametrize("stage_cls", [LabelCorrector, FraudDetector])
def test_stage_state_dict_roundtrip(tiny_config, tiny_vectorizer, stage_cls):
    source = stage_cls(tiny_config, tiny_vectorizer,
                       np.random.default_rng(0))
    state = source.state_dict()
    assert set(state) == {"encoder", "classifier"}
    assert set(state["encoder"]) == _ENCODER
    assert set(state["classifier"]) == _CLASSIFIER

    target = stage_cls(tiny_config, tiny_vectorizer,
                       np.random.default_rng(1))
    with pytest.raises(RuntimeError):
        target.predict_proba(None)
    assert target.load_state_dict(state, copy=False) is target
    bound = target.encoder.state_dict()
    for key, value in state["encoder"].items():
        np.testing.assert_array_equal(bound[key], value)
    assert target.encoder.rnn.cells[0].w_x.data is \
        state["encoder"]["rnn.cells.0.w_x"]


def test_detector_state_carries_centroids(tiny_config, tiny_vectorizer):
    detector = FraudDetector(tiny_config, tiny_vectorizer,
                             np.random.default_rng(0))
    centroids = np.arange(2.0 * detector.encoder.output_dim).reshape(2, -1)
    detector.fit_centroids(centroids, np.array([0, 1]))
    state = detector.state_dict()
    assert set(state) == {"encoder", "classifier", "centroids"}

    copied = FraudDetector(tiny_config, tiny_vectorizer,
                           np.random.default_rng(1)).load_state_dict(state)
    np.testing.assert_array_equal(copied.centroids, centroids)
    assert copied.centroids is not state["centroids"]
    bound = FraudDetector(tiny_config, tiny_vectorizer,
                          np.random.default_rng(1)).load_state_dict(
                              state, copy=False)
    assert bound.centroids is state["centroids"]
