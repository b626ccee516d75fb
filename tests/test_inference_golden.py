"""Golden score digests for every inference configuration.

Each row builds a small deterministic CLFD (seeded initial weights, no
training), scores a fixed set of sessions through ``CLFD.predict`` and
through an ``InferenceEngine``, and hashes the exact bytes of the
labels, scores, probabilities and embeddings.  The digests pin the
float forward bit for bit across refactors of the inference path:

* the LSTM encoder with mean pooling at float32 and float64;
* centroid inference and the no-fraud-detector ablation;
* the quantized runtime at int8, float16 and float32.

The float rows were recorded with the autograd-based forward that
``InferenceForward`` replaced, and must never move.  The quantized rows
were recorded once the quantized runtime ran that same shared forward
(its pooling and softmax expressions moved quantized scores by at most
1e-7 from the runtime's former private forward).  GEMM
results depend on the BLAS build, so a different NumPy/BLAS
installation may need new digests; ``python
tests/test_inference_golden.py`` prints the current ones.
"""

from __future__ import annotations

import hashlib
import json
import tempfile

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.core import read_archive, save_clfd
from repro.core.fraud_detector import FraudDetector
from repro.core.label_corrector import LabelCorrector
from repro.core.persistence import build_clfd
from repro.data import SessionDataset, SessionVectorizer, Word2VecConfig
from repro.data.sessions import Session
from repro.data.vocab import Vocabulary
from repro.data.word2vec import SkipGramModel
from repro.quant import apply_precision
from repro.serve import InferenceEngine

MAX_LEN = 15
VOCAB = Vocabulary(f"act{i}" for i in range(23))


def _sessions() -> list[list[int]]:
    """70 sessions: lengths 1..MAX_LEN, a few longer (truncated), ids
    spanning the whole vocabulary including the pad id."""
    rng = np.random.default_rng(2024)
    lengths = rng.integers(1, MAX_LEN + 4, size=70)
    lengths[:3] = (1, MAX_LEN, MAX_LEN + 3)
    return [rng.integers(0, len(VOCAB), size=int(n)).tolist()
            for n in lengths]


def _model(dtype="float64", inference="classifier",
           use_fraud_detector=True) -> CLFD:
    config = CLFDConfig(embedding_dim=12, hidden_size=16, batch_size=32,
                        compute_dtype=dtype, inference=inference,
                        use_fraud_detector=use_fraud_detector,
                        word2vec=Word2VecConfig(dim=12))
    # The leading 4, 4 are len("lstm"), len("mean"): the seed the digests
    # were recorded with when the encoder cell and pooling were options.
    rng = np.random.default_rng([4, 4, len(dtype), len(inference),
                                 int(use_fraud_detector)])
    vectors = rng.normal(scale=0.5, size=(len(VOCAB), 12))
    model = CLFD(config)
    model.vectorizer = SessionVectorizer(SkipGramModel(vectors),
                                         max_len=MAX_LEN, vocab=VOCAB)
    if use_fraud_detector:
        detector = FraudDetector(config, model.vectorizer, rng)
        detector.centroids = rng.normal(
            scale=0.1, size=(2, detector.encoder.output_dim))
        detector._fitted = True
        model.fraud_detector = detector
    else:
        corrector = LabelCorrector(config, model.vectorizer, rng)
        corrector._fitted = True
        model.label_corrector = corrector
    model._fitted = True
    return model


def _quantized(model: CLFD, precision: str):
    with tempfile.TemporaryDirectory() as tmp:
        meta, arrays = read_archive(save_clfd(model, tmp + "/m"))
    return build_clfd(*apply_precision(meta, arrays, precision))


def _hash(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _row(model) -> dict[str, str]:
    sessions = _sessions()
    dataset = SessionDataset(
        [Session(activities=ids, label=0, session_id=f"s{i}")
         for i, ids in enumerate(sessions)], VOCAB)
    labels, scores, embeddings = model.predict(dataset,
                                               return_embeddings=True)
    probs = model.predict_proba(dataset)
    with InferenceEngine(model) as engine:
        results = engine.score_many(
            [{"activities": ids, "session_id": f"s{i}"}
             for i, ids in enumerate(sessions)])
    served = np.array([r.score for r in results])
    served_labels = np.array([r.label for r in results])
    return {"predict": _hash(labels, scores, embeddings),
            "proba": _hash(probs),
            "engine": _hash(served_labels, served)}


def _float_rows() -> dict[str, dict]:
    rows = {f"lstm-mean-{dtype}": dict(dtype=dtype)
            for dtype in ("float32", "float64")}
    rows["lstm-mean-float64-centroid"] = dict(inference="centroid")
    rows["lstm-mean-float64-no-fd"] = dict(use_fraud_detector=False)
    return rows


def _quant_rows() -> dict[str, tuple[dict, str]]:
    return {f"{precision}-lstm-mean": ({}, precision)
            for precision in ("int8", "float16", "float32")}


def current_digests() -> dict[str, dict]:
    out = {name: _row(_model(**kwargs))
           for name, kwargs in _float_rows().items()}
    for name, (kwargs, precision) in _quant_rows().items():
        out[name] = _row(_quantized(_model(**kwargs), precision))
    return out


GOLDEN: dict[str, dict] = {
    "float16-lstm-mean": {
        "predict": "96d8c2bb85bdf868", "proba": "8495ff096754acec",
        "engine": "70ffc8ef19f9d1be"},
    "float32-lstm-mean": {
        "predict": "38ee44e0d57371b1", "proba": "62e41394141128f7",
        "engine": "6b9afcc7469e61cd"},
    "int8-lstm-mean": {
        "predict": "adfc4f2e55df45a1", "proba": "7a65a10e4519f8fe",
        "engine": "2741a8bf50d650f3"},
    "lstm-mean-float32": {
        "predict": "e7663af321b31488", "proba": "33cc15fd0276c5a5",
        "engine": "42d7defd36e8b1f9"},
    "lstm-mean-float64": {
        "predict": "d1764f10b18d265e", "proba": "c7d636c8688a955e",
        "engine": "5418f4537790de6d"},
    "lstm-mean-float64-centroid": {
        "predict": "58a4a6bb3863ce07", "proba": "fb5a63e00fa9f6ec",
        "engine": "393007635ea5945c"},
    "lstm-mean-float64-no-fd": {
        "predict": "38c86a3c3a9fc2eb", "proba": "a3a10a24b0c58e4b",
        "engine": "5acc608108423229"},
}


@pytest.fixture(scope="module")
def digests():
    return current_digests()


@pytest.mark.parametrize("name", sorted(_float_rows()))
def test_float_scores_match_the_golden_digests(digests, name):
    assert digests[name] == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(_quant_rows()))
def test_quantized_scores_match_the_golden_digests(digests, name):
    assert digests[name] == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=1, sort_keys=True))
