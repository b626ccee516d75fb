"""NumPy inference runtime for quantized (v3) archives.

:class:`QuantizedCLFD` is the low-precision counterpart of a fitted
:class:`~repro.core.CLFD`: it exposes the same inference surface the
serving tier consumes (``vectorizer`` / ``predict`` /
``predict_proba`` / ``inference_forward`` / ``config``) but keeps its
weights in their storage form — int8 payloads with per-channel float32
scales, row-scaled float16 embedding tables — and computes in float32.

It has no forward pass of its own.  It assembles the one inference
forward, :class:`~repro.core.encoder.InferenceForward`, that the float
model runs (DESIGN.md §13), and only supplies the projections: input
projections (the LSTM gates and the FCNN layers) go through the fused
dequantize-on-the-fly GEMM :func:`repro.nn.quant.quant_matmul_np`, so
the scaled float expansion of an int8 weight is never materialised; the
payload's unscaled float32 cast is made once per model generation, not
per call.  Recurrent matrices are the exception: each
:class:`QuantWeight` dequantizes its recurrent matrix once (cached) and
the timestep loop reuses it, so the per-step GEMM runs on a plain float
matrix.

Every operation is deterministic NumPy with fixed shapes (the serving
engine pads batches to ``max_batch`` rows), which is what makes
quantized scores bit-identical across cluster workers and across a
rolling reload at fixed precision.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from ..core.config import CLFDConfig
from ..core.encoder import InferenceForward, RecurrentLayer
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset
from ..data.vocab import Vocabulary
from ..nn.quant import dequantize_np, fp16_embed_np, quant_matmul_np
from .quantize import SCALE_SUFFIX

__all__ = ["QuantWeight", "QuantizedSkipGram", "QuantizedCLFD",
           "build_quantized"]

_F32 = np.float32


class QuantWeight:
    """One weight matrix in its storage form, with a fused projection.

    ``kind`` is the archive storage kind (``int8`` / ``fp16`` /
    ``raw``); ``payload`` the stored matrix; ``scales`` the per-column
    float32 scales for ``int8``.  :meth:`project` is the hot path: it
    casts an int8 payload to float32 once per model generation (the
    scales stay apart, so ``(x @ q) * s`` is still the projection);
    :meth:`dense` lazily caches the float32 expansion for recurrent
    use.
    """

    __slots__ = ("kind", "payload", "scales", "_cast", "_dense")

    def __init__(self, kind: str, payload: np.ndarray,
                 scales: np.ndarray | None = None):
        if kind == "int8" and scales is None:
            raise ValueError("int8 weight requires scales")
        self.kind = kind
        self.payload = payload
        self.scales = scales
        self._cast: np.ndarray | None = None
        self._dense: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.payload.shape

    def project(self, x: np.ndarray, bias: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """``x @ W (+ bias)`` without materialising a float W for int8,
        into ``out`` when given."""
        if self.kind == "int8":
            if self._cast is None:
                self._cast = self.payload.astype(_F32)
            return quant_matmul_np(x, self._cast, self.scales, bias, out)
        out = np.matmul(x, self.dense(), out=out)
        if bias is not None:
            out += bias
        return out

    def dense(self) -> np.ndarray:
        """The float32 expansion (cached; recurrent matrices only)."""
        if self._dense is None:
            if self.kind == "int8":
                self._dense = dequantize_np(self.payload, self.scales)
            elif self.payload.dtype == _F32:
                self._dense = self.payload
            else:
                self._dense = self.payload.astype(_F32)
        return self._dense


class QuantizedSkipGram:
    """Row-scaled float16 embedding table behind the SkipGram interface.

    Drop-in for :class:`~repro.data.word2vec.SkipGramModel` inside a
    :class:`~repro.data.pipeline.SessionVectorizer`: lookups expand to
    float32 through :func:`repro.nn.quant.fp16_embed_np`.
    """

    def __init__(self, table: np.ndarray, scales: np.ndarray):
        if table.dtype != np.float16:
            raise TypeError(f"QuantizedSkipGram table must be float16, "
                            f"got {table.dtype}")
        self.table = table
        self.scales = scales

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.table.shape[0]

    def embed_ids(self, ids: np.ndarray) -> np.ndarray:
        return fp16_embed_np(ids, self.table, self.scales)


# ----------------------------------------------------------------------
# Archive assembly
# ----------------------------------------------------------------------
def _weight(arrays: dict, kinds: dict, key: str) -> QuantWeight:
    return QuantWeight(kinds[key], arrays[key],
                       arrays.get(key + SCALE_SUFFIX))


def _bias(arrays: dict, key: str) -> np.ndarray:
    return np.asarray(arrays[key], dtype=_F32)


def _affine(arrays: dict, kinds: dict, weight: str, bias: str):
    """``x @ W + b`` through :meth:`QuantWeight.project`."""
    return functools.partial(_weight(arrays, kinds, weight).project,
                             bias=_bias(arrays, bias))


def _layers(arrays: dict, kinds: dict, prefix: str,
            num_layers: int) -> list[RecurrentLayer]:
    keys = [f"{prefix}.cells.{i}." for i in range(num_layers)]
    return [RecurrentLayer(_affine(arrays, kinds, key + "w_x", key + "bias"),
                           _weight(arrays, kinds, key + "w_h").dense())
            for key in keys]


class QuantizedCLFD:
    """A quantized archive assembled for inference.

    Speaks the slice of the CLFD surface the serving tier uses:
    ``vectorizer`` (a real :class:`SessionVectorizer` over the
    compressed embedding table), ``predict`` / ``predict_proba`` with
    the same signatures and batching as
    :meth:`FraudDetector.predict <repro.core.fraud_detector.FraudDetector.predict>`,
    plus ``inference_forward``, ``config`` and ``precision``.  Training
    methods do not exist here on purpose — a quantized archive is
    inference-only.
    """

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray], *,
                 bind: bool = False):
        quant = meta.get("quant")
        if not quant:
            raise ValueError("not a quantized archive (no quant metadata)")
        self.precision: str = quant["precision"]
        kinds: dict[str, str] = quant["arrays"]

        self.config = CLFDConfig.from_dict(meta["config"])

        if not bind:
            arrays = {key: np.array(value) for key, value in arrays.items()}

        embedding = QuantizedSkipGram(
            arrays["word2vec/vectors"],
            arrays["word2vec/vectors" + SCALE_SUFFIX])
        tokens = meta.get("vocab")
        vocab = Vocabulary(tokens[1:]) if tokens else None
        self.vectorizer = SessionVectorizer(embedding,
                                            max_len=int(meta["max_len"]),
                                            vocab=vocab)

        config = self.config
        # The FCNN head's storage-form weights, ``classifier.fc1`` /
        # ``classifier.fc2``; the forward reads them at every call.
        head = "detector/classifier/"
        self.classifier = types.SimpleNamespace(**{
            fc: _weight(arrays, kinds, f"{head}{fc}.weight")
            for fc in ("fc1", "fc2")})
        fc1, fc2 = (functools.partial(getattr(self.classifier, fc).project,
                                      bias=_bias(arrays, f"{head}{fc}.bias"))
                    for fc in ("fc1", "fc2"))
        self.centroids = (np.asarray(arrays["detector/centroids"],
                                     dtype=_F32)
                          if "detector/centroids" in arrays else None)
        self._forward = InferenceForward(
            _layers(arrays, kinds, "detector/encoder/rnn", config.lstm_layers),
            dtype=_F32, head=(fc1, fc2, _F32),
            centroid=config.inference == "centroid",
            centroids=self.centroids,
            table=self.vectorizer.embedding_table(_F32),
            max_len=self.vectorizer.max_len, batch_size=config.batch_size)
        self._fitted = True

    # ------------------------------------------------------------------
    # Inference (signatures mirror CLFD / FraudDetector)
    # ------------------------------------------------------------------
    def inference_forward(self) -> InferenceForward:
        """The inference forward over this archive's weights."""
        return self._forward

    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        return self._forward.predict(dataset,
                                     return_embeddings=return_embeddings)

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        return self._forward.probs(self._forward.encode_dataset(dataset))


def build_quantized(meta: dict, arrays: dict[str, np.ndarray], *,
                    bind: bool = False) -> QuantizedCLFD:
    """Assemble a :class:`QuantizedCLFD` from ``read_archive`` output.

    With ``bind=True`` the runtime's payload arrays *are* the provided
    arrays (the cluster's zero-copy shared-memory path) — callers must
    keep their backing memory alive for the model's lifetime.
    """
    return QuantizedCLFD(meta, arrays, bind=bind)
