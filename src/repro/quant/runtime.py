"""NumPy inference runtime for quantized (v3) archives.

:class:`QuantizedCLFD` is the low-precision counterpart of a fitted
:class:`~repro.core.CLFD`: it exposes the same inference surface the
serving tier consumes (``vectorizer`` / ``predict`` /
``predict_proba`` / ``config``) but keeps its weights in their storage
form — int8 payloads with per-channel float32 scales, row-scaled
float16 embedding tables — and runs the forward pass in plain float32
NumPy with no autograd graph.

Input projections (LSTM/GRU gates, the FCNN layers, the attention
projection) go through the fused dequantize-on-the-fly GEMM
:func:`repro.nn.quant.quant_matmul_np`, so the float expansion of an
int8 weight is never materialised on the hot path.  Recurrent matrices
are the exception: a reset-gated product does not commute with
per-column scales, so each :class:`QuantWeight` dequantizes its
recurrent matrix once (cached) and the timestep loop reuses it.

Every operation here is deterministic NumPy with fixed shapes (the
serving engine pads batches to ``max_batch`` rows), which is what makes
quantized scores bit-identical across cluster workers and across a
rolling reload at fixed precision.  As in :mod:`repro.nn.fused`, the
LSTM/GRU stacks under mean pooling skip dead cells: GEMMs keep every
row, elementwise work runs on the live-row prefix only.

The forward math mirrors :mod:`repro.core.encoder` /
:mod:`repro.nn.lstm` exactly — gate order ``[input, forget, cell,
output]``, GRU ``[reset, update]`` with a separate candidate
projection, BiLSTM's reversed-time backward pass, masked mean pooling
with a ``max(length, 1)`` denominator, additive attention with the
``-1e9`` padding bias and max-shifted softmax, LeakyReLU slope 0.01 —
only the parameter storage and compute dtype differ.
"""

from __future__ import annotations

import numpy as np

from ..core.config import CLFDConfig
from ..data.pipeline import SessionVectorizer
from ..data.sessions import SessionDataset, iter_batches
from ..data.vocab import Vocabulary
from ..nn.fused import live_rows
from ..nn.quant import dequantize_np, fp16_embed_np, quant_matmul_np
from .quantize import SCALE_SUFFIX

__all__ = ["QuantWeight", "QuantizedSkipGram", "QuantizedCLFD",
           "build_quantized"]

_F32 = np.float32


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class QuantWeight:
    """One weight matrix in its storage form, with a fused projection.

    ``kind`` is the archive storage kind (``int8`` / ``fp16`` /
    ``raw``); ``payload`` the stored matrix; ``scales`` the per-column
    float32 scales for ``int8``.  :meth:`project` is the hot path;
    :meth:`dense` lazily caches the float32 expansion for recurrent
    use.
    """

    __slots__ = ("kind", "payload", "scales", "_dense")

    def __init__(self, kind: str, payload: np.ndarray,
                 scales: np.ndarray | None = None):
        if kind == "int8" and scales is None:
            raise ValueError("int8 weight requires scales")
        self.kind = kind
        self.payload = payload
        self.scales = scales
        self._dense: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.payload.shape

    def project(self, x: np.ndarray,
                bias: np.ndarray | None = None) -> np.ndarray:
        """``x @ W (+ bias)`` without materialising a float W for int8."""
        if self.kind == "int8":
            return quant_matmul_np(x, self.payload, self.scales, bias)
        out = x @ self.dense()
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
# Encoder stacks (forward math mirrors repro.nn.lstm / gru / bilstm)
# ----------------------------------------------------------------------
class _QuantLSTMStack:
    """N stacked LSTM layers; cells are dicts of QuantWeight/bias.

    ``live`` (from :func:`repro.nn.fused.live_rows`) runs ``len(live)``
    steps, step ``t`` updating rows ``[:live[t]]``; skipped cells of the
    output are zero.  The recurrent state keeps every row, so each
    step's GEMM has the full-grid shape.
    """

    def __init__(self, cells: list[dict]):
        self.cells = cells

    def forward(self, x: np.ndarray,
                live: tuple[int, ...] | None = None) -> np.ndarray:
        for cell in self.cells:
            x = self._layer(x, cell, live)
        return x

    @staticmethod
    def _layer(x: np.ndarray, cell: dict,
               live: tuple[int, ...] | None) -> np.ndarray:
        batch, time, _ = x.shape
        hidden = cell["bias"].shape[0] // 4
        proj = cell["w_x"].project(x.reshape(batch * time, -1),
                                   cell["bias"])
        proj = proj.reshape(batch, time, 4 * hidden)
        w_h = cell["w_h"].dense()
        h = np.zeros((batch, hidden), dtype=_F32)
        c = np.zeros((batch, hidden), dtype=_F32)
        out = np.zeros((batch, time, hidden), dtype=_F32)
        for t in range(time if live is None else len(live)):
            rows = batch if live is None else live[t]
            gates = proj[:rows, t] + (h @ w_h)[:rows]
            i = _sigmoid(gates[:, :hidden])
            f = _sigmoid(gates[:, hidden:2 * hidden])
            g = np.tanh(gates[:, 2 * hidden:3 * hidden])
            o = _sigmoid(gates[:, 3 * hidden:])
            c[:rows] = f * c[:rows] + i * g
            h[:rows] = o * np.tanh(c[:rows])
            out[:rows, t] = h[:rows]
        return out


class _QuantGRUStack:
    """N stacked GRU layers (reset/update gates + separate candidate);
    ``live`` skips dead cells as in :class:`_QuantLSTMStack`."""

    def __init__(self, cells: list[dict]):
        self.cells = cells

    def forward(self, x: np.ndarray,
                live: tuple[int, ...] | None = None) -> np.ndarray:
        for cell in self.cells:
            x = self._layer(x, cell, live)
        return x

    @staticmethod
    def _layer(x: np.ndarray, cell: dict,
               live: tuple[int, ...] | None) -> np.ndarray:
        batch, time, _ = x.shape
        hidden = cell["bias"].shape[0] // 2
        flat = x.reshape(batch * time, -1)
        proj_g = cell["w_x"].project(flat, cell["bias"])
        proj_g = proj_g.reshape(batch, time, 2 * hidden)
        proj_c = cell["w_xc"].project(flat, cell["bias_c"])
        proj_c = proj_c.reshape(batch, time, hidden)
        w_h = cell["w_h"].dense()
        w_hc = cell["w_hc"].dense()
        h = np.zeros((batch, hidden), dtype=_F32)
        rh = np.zeros((batch, hidden), dtype=_F32)
        out = np.zeros((batch, time, hidden), dtype=_F32)
        for t in range(time if live is None else len(live)):
            rows = batch if live is None else live[t]
            gates = proj_g[:rows, t] + (h @ w_h)[:rows]
            r = _sigmoid(gates[:, :hidden])
            z = _sigmoid(gates[:, hidden:])
            rh[:rows] = r * h[:rows]
            candidate = np.tanh(proj_c[:rows, t] + (rh @ w_hc)[:rows])
            h[:rows] = z * h[:rows] + (1.0 - z) * candidate
            out[:rows, t] = h[:rows]
        return out


class _QuantBiLSTMStack:
    """Forward + reversed-time LSTM stacks, concatenated per step."""

    def __init__(self, forward_cells: list[dict],
                 backward_cells: list[dict]):
        self.forward_stack = _QuantLSTMStack(forward_cells)
        self.backward_stack = _QuantLSTMStack(backward_cells)

    def forward(self, x: np.ndarray) -> np.ndarray:
        fwd = self.forward_stack.forward(x)
        bwd = self.backward_stack.forward(
            np.ascontiguousarray(x[:, ::-1, :]))[:, ::-1, :]
        return np.concatenate([fwd, bwd], axis=2)


class _QuantEncoder:
    """Recurrent stack + pooling, mirroring SessionEncoder.forward."""

    def __init__(self, stack, pooling: str,
                 attention_proj: QuantWeight | None = None,
                 attention_query: np.ndarray | None = None):
        self.stack = stack
        self.pooling = pooling
        self.attention_proj = attention_proj
        self.attention_query = attention_query

    def encode(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=_F32)
        if self.pooling == "attention":
            return self._attention_pool(self.stack.forward(x), lengths)
        if isinstance(self.stack, _QuantBiLSTMStack):
            # The reverse pass reads the padding first: full grid.
            return self._mean_pool(self.stack.forward(x), lengths)
        outputs = self.stack.forward(x, live_rows(lengths, x.shape[1]))
        return self._mean_pool(outputs, lengths)

    @staticmethod
    def _mean_pool(outputs: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
        _, time, _ = outputs.shape
        lengths = np.asarray(lengths, dtype=_F32)
        mask = (np.arange(time)[None, :] < lengths[:, None]).astype(_F32)
        masked = outputs * mask[:, :, None]
        return masked.sum(axis=1) / np.maximum(lengths, 1.0)[:, None]

    def _attention_pool(self, outputs: np.ndarray,
                        lengths: np.ndarray) -> np.ndarray:
        batch, time, dim = outputs.shape
        flat = outputs.reshape(batch * time, dim)
        scores = np.tanh(self.attention_proj.project(flat))
        scores = (scores @ self.attention_query).reshape(batch, time)
        lengths = np.asarray(lengths)
        scores = scores + np.where(
            np.arange(time)[None, :] < lengths[:, None], 0.0,
            -1e9).astype(_F32)
        shifted = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        weights = weights / weights.sum(axis=1, keepdims=True)
        return (outputs * weights[:, :, None]).sum(axis=1)


class _QuantClassifier:
    """Two-layer FCNN head: Linear + LeakyReLU(0.01) + Linear + softmax."""

    def __init__(self, fc1: QuantWeight, b1: np.ndarray,
                 fc2: QuantWeight, b2: np.ndarray):
        self.fc1 = fc1
        self.b1 = b1
        self.fc2 = fc2
        self.b2 = b2

    def probs(self, z: np.ndarray) -> np.ndarray:
        hidden = self.fc1.project(z, self.b1)
        hidden = np.where(hidden > 0, hidden, 0.01 * hidden)
        logits = self.fc2.project(hidden, self.b2)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# Archive assembly
# ----------------------------------------------------------------------
def _weight(arrays: dict, kinds: dict, key: str) -> QuantWeight:
    return QuantWeight(kinds[key], arrays[key],
                       arrays.get(key + SCALE_SUFFIX))


def _bias(arrays: dict, key: str) -> np.ndarray:
    return np.asarray(arrays[key], dtype=_F32)


def _lstm_cells(arrays: dict, kinds: dict, prefix: str,
                num_layers: int) -> list[dict]:
    return [{
        "w_x": _weight(arrays, kinds, f"{prefix}.cells.{i}.w_x"),
        "w_h": _weight(arrays, kinds, f"{prefix}.cells.{i}.w_h"),
        "bias": _bias(arrays, f"{prefix}.cells.{i}.bias"),
    } for i in range(num_layers)]


def _gru_cells(arrays: dict, kinds: dict, prefix: str,
               num_layers: int) -> list[dict]:
    cells = _lstm_cells(arrays, kinds, prefix, num_layers)
    for i, cell in enumerate(cells):
        cell["w_xc"] = _weight(arrays, kinds, f"{prefix}.cells.{i}.w_xc")
        cell["w_hc"] = _weight(arrays, kinds, f"{prefix}.cells.{i}.w_hc")
        cell["bias_c"] = _bias(arrays, f"{prefix}.cells.{i}.bias_c")
    return cells


class QuantizedCLFD:
    """A quantized archive assembled for inference.

    Speaks the slice of the CLFD surface the serving tier uses:
    ``vectorizer`` (a real :class:`SessionVectorizer` over the
    compressed embedding table), ``predict`` / ``predict_proba`` with
    the same signatures and batching as
    :meth:`FraudDetector.predict <repro.core.fraud_detector.FraudDetector.predict>`,
    plus ``config`` and ``precision``.  Training methods do not exist
    here on purpose — a quantized archive is inference-only.
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

        enc = "detector/encoder/"
        layers = self.config.lstm_layers
        if self.config.encoder_cell == "lstm":
            stack = _QuantLSTMStack(
                _lstm_cells(arrays, kinds, enc + "rnn", layers))
        elif self.config.encoder_cell == "gru":
            stack = _QuantGRUStack(
                _gru_cells(arrays, kinds, enc + "rnn", layers))
        else:
            stack = _QuantBiLSTMStack(
                _lstm_cells(arrays, kinds, enc + "rnn.forward_lstm",
                            layers),
                _lstm_cells(arrays, kinds, enc + "rnn.backward_lstm",
                            layers))
        attention_proj = attention_query = None
        if self.config.pooling == "attention":
            attention_proj = _weight(arrays, kinds, enc + "attention.proj")
            attention_query = _bias(arrays, enc + "attention.query")
        self.encoder = _QuantEncoder(stack, self.config.pooling,
                                     attention_proj, attention_query)

        head = "detector/classifier/"
        self.classifier = _QuantClassifier(
            _weight(arrays, kinds, head + "fc1.weight"),
            _bias(arrays, head + "fc1.bias"),
            _weight(arrays, kinds, head + "fc2.weight"),
            _bias(arrays, head + "fc2.bias"))
        self.centroids = (np.asarray(arrays["detector/centroids"],
                                     dtype=_F32)
                          if "detector/centroids" in arrays else None)
        self._fitted = True

    # ------------------------------------------------------------------
    # Inference (signatures mirror CLFD / FraudDetector)
    # ------------------------------------------------------------------
    def predict(self, dataset: SessionDataset, *,
                return_embeddings: bool = False):
        features = self._encode_dataset(dataset)
        if self.config.inference == "centroid":
            labels, scores = self._predict_centroid(features)
        else:
            probs = self.classifier.probs(features)
            labels, scores = probs.argmax(axis=1), probs[:, 1]
        if return_embeddings:
            return labels, scores, features
        return labels, scores

    def predict_proba(self, dataset: SessionDataset) -> np.ndarray:
        features = self._encode_dataset(dataset)
        if self.config.inference == "centroid":
            _, scores = self._predict_centroid(features)
            return np.stack([1.0 - scores, scores], axis=1)
        return self.classifier.probs(features)

    def _predict_centroid(self, features: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
        if self.centroids is None:
            raise RuntimeError("archive carries no centroids")
        dists = np.linalg.norm(
            features[:, None, :] - self.centroids[None, :, :], axis=2)
        labels = dists.argmin(axis=1)
        gap = dists[:, 0] - dists[:, 1]
        return labels, _sigmoid(gap)

    def _encode_dataset(self, dataset: SessionDataset) -> np.ndarray:
        # Same batching as FraudDetector._encode_dataset so the split
        # points (and therefore GEMM shapes) match the float path.
        outputs = []
        for batch in iter_batches(dataset, self.config.batch_size):
            x, lengths = self.vectorizer.transform(dataset, indices=batch)
            outputs.append(self.encoder.encode(x, lengths))
        return np.concatenate(outputs, axis=0)


def build_quantized(meta: dict, arrays: dict[str, np.ndarray], *,
                    bind: bool = False) -> QuantizedCLFD:
    """Assemble a :class:`QuantizedCLFD` from ``read_archive`` output.

    With ``bind=True`` the runtime's payload arrays *are* the provided
    arrays (the cluster's zero-copy shared-memory path) — callers must
    keep their backing memory alive for the model's lifetime.
    """
    return QuantizedCLFD(meta, arrays, bind=bind)
