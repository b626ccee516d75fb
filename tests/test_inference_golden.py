"""Golden score digests for every inference configuration.

Each row builds a small deterministic CLFD (seeded initial weights, no
training), scores a fixed set of sessions through ``CLFD.predict`` and
through an ``InferenceEngine``, and hashes the exact bytes of the
labels, scores, probabilities and embeddings.  The digests pin the
float forward bit for bit across refactors of the inference path:

* lstm, gru and bilstm encoders under mean and attention pooling, at
  float32 and float64;
* centroid inference and the no-fraud-detector ablation;
* the quantized runtime at int8, float16 and float32.

The float rows were recorded with the autograd-based forward that
``InferenceForward`` replaced, and must never move.  The quantized rows
were recorded once the quantized runtime ran that same shared forward
(its pooling, softmax and attention expressions moved quantized scores
by at most 1e-7 from the runtime's former private forward).  GEMM
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


def _model(cell="lstm", pooling="mean", dtype="float64",
           inference="classifier", use_fraud_detector=True) -> CLFD:
    config = CLFDConfig(embedding_dim=12, hidden_size=16, batch_size=32,
                        encoder_cell=cell, pooling=pooling,
                        compute_dtype=dtype, inference=inference,
                        use_fraud_detector=use_fraud_detector,
                        word2vec=Word2VecConfig(dim=12))
    rng = np.random.default_rng([len(cell), len(pooling), len(dtype),
                                 len(inference), int(use_fraud_detector)])
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
    rows = {}
    for cell in ("lstm", "gru", "bilstm"):
        for pooling in ("mean", "attention"):
            for dtype in ("float32", "float64"):
                rows[f"{cell}-{pooling}-{dtype}"] = dict(
                    cell=cell, pooling=pooling, dtype=dtype)
    rows["lstm-mean-float64-centroid"] = dict(inference="centroid")
    rows["gru-attention-float32-centroid"] = dict(
        cell="gru", pooling="attention", dtype="float32",
        inference="centroid")
    rows["lstm-mean-float64-no-fd"] = dict(use_fraud_detector=False)
    rows["bilstm-attention-float32-no-fd"] = dict(
        cell="bilstm", pooling="attention", dtype="float32",
        use_fraud_detector=False)
    return rows


def _quant_rows() -> dict[str, tuple[dict, str]]:
    rows = {}
    for precision in ("int8", "float16", "float32"):
        for cell, pooling in (("lstm", "mean"), ("gru", "mean"),
                              ("bilstm", "mean"), ("lstm", "attention")):
            rows[f"{precision}-{cell}-{pooling}"] = (
                dict(cell=cell, pooling=pooling), precision)
        rows[f"{precision}-gru-attention-centroid"] = (
            dict(cell="gru", pooling="attention", inference="centroid"),
            precision)
    return rows


def current_digests() -> dict[str, dict]:
    out = {name: _row(_model(**kwargs))
           for name, kwargs in _float_rows().items()}
    for name, (kwargs, precision) in _quant_rows().items():
        out[name] = _row(_quantized(_model(**kwargs), precision))
    return out


GOLDEN: dict[str, dict] = {
    "bilstm-attention-float32": {
        "predict": "3b94f21d84b5b872", "proba": "9b77fb2b74808e84",
        "engine": "0eb18fc954e2edcb"},
    "bilstm-attention-float32-no-fd": {
        "predict": "d498041c6f1068ff", "proba": "65f1c93fb64f0854",
        "engine": "3d8edd8eb43732c2"},
    "bilstm-attention-float64": {
        "predict": "61b24aeb9913bd39", "proba": "7711fb0d9b40786e",
        "engine": "b78f66d31f67448a"},
    "bilstm-mean-float32": {
        "predict": "15a28f6e5f6e6dd7", "proba": "4c18b9ba4c9ef9ae",
        "engine": "b9d20834279cee37"},
    "bilstm-mean-float64": {
        "predict": "85310803f02b254b", "proba": "614bee865bf573dd",
        "engine": "3c67c56230c6a6ce"},
    "float16-bilstm-mean": {
        "predict": "99a3d7b2c3e70f83", "proba": "fc5c625b0f3fc825",
        "engine": "c8811c0b97feae5f"},
    "float16-gru-attention-centroid": {
        "predict": "f4144d0ceddca0ec", "proba": "97b8169ae53dce4f",
        "engine": "8047a256d25be4aa"},
    "float16-gru-mean": {
        "predict": "9c25317d884f5a97", "proba": "7db04c615e3d9fe6",
        "engine": "8b35294320954c25"},
    "float16-lstm-attention": {
        "predict": "4a7beac32c4e7408", "proba": "f1d8440a48cd9e81",
        "engine": "67888e3aff7be6d9"},
    "float16-lstm-mean": {
        "predict": "96d8c2bb85bdf868", "proba": "8495ff096754acec",
        "engine": "70ffc8ef19f9d1be"},
    "float32-bilstm-mean": {
        "predict": "a0a1b1916ddda561", "proba": "4933cf7be4df5ba3",
        "engine": "69826a44bc35a3f2"},
    "float32-gru-attention-centroid": {
        "predict": "839b0d8fdf072749", "proba": "3a17cbc7a279913a",
        "engine": "eb4435e1da2be974"},
    "float32-gru-mean": {
        "predict": "17690e2113626618", "proba": "84272af339501ee4",
        "engine": "ed3d01d5066b4bf3"},
    "float32-lstm-attention": {
        "predict": "427f3e65925b04cb", "proba": "b67a8e6292038121",
        "engine": "17b26069d82027c6"},
    "float32-lstm-mean": {
        "predict": "38ee44e0d57371b1", "proba": "62e41394141128f7",
        "engine": "6b9afcc7469e61cd"},
    "gru-attention-float32": {
        "predict": "7cdae587e4e6896c", "proba": "5edccfcf48481746",
        "engine": "2802046f598d955a"},
    "gru-attention-float32-centroid": {
        "predict": "09410060b643a69b", "proba": "f45b51a2d97e9717",
        "engine": "c5fcebebe43b2c47"},
    "gru-attention-float64": {
        "predict": "8a08df3371b956c7", "proba": "0a3b98d55426e2b9",
        "engine": "dcfe4107a6b69f04"},
    "gru-mean-float32": {
        "predict": "64fbfae18c586e64", "proba": "a0423bc98242a631",
        "engine": "d6a1d69ad4f141b4"},
    "gru-mean-float64": {
        "predict": "3fc1a580eeefaf15", "proba": "ce7e52e09c62f0d1",
        "engine": "60f65347d9c15141"},
    "int8-bilstm-mean": {
        "predict": "e75cba9095987c29", "proba": "8a4949e00a27f71e",
        "engine": "ab1644424f942d44"},
    "int8-gru-attention-centroid": {
        "predict": "a8d47d30c229e6bf", "proba": "5ceac08b40ed4d78",
        "engine": "f1abb8ce9deed912"},
    "int8-gru-mean": {
        "predict": "c0d9020cac69fb7a", "proba": "a1b19d5e748e42d7",
        "engine": "fad6b84014cd3779"},
    "int8-lstm-attention": {
        "predict": "8ddf0535d6a35348", "proba": "0ec5eabca9164ffe",
        "engine": "ba1874a65b5cbea8"},
    "int8-lstm-mean": {
        "predict": "adfc4f2e55df45a1", "proba": "7a65a10e4519f8fe",
        "engine": "2741a8bf50d650f3"},
    "lstm-attention-float32": {
        "predict": "85caf01f20e86842", "proba": "9c26344cd6f36fe8",
        "engine": "de9f4a3736e5e242"},
    "lstm-attention-float64": {
        "predict": "1990def9e428bc92", "proba": "3a44cfd8b7b15b57",
        "engine": "36c9b28ac566895c"},
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
