"""Session encoder and classifier head shared by CLFD's components, and
the one NumPy forward every inference path scores with.

:class:`SessionEncoder` and :class:`SoftmaxClassifier` are the trained
modules.  :class:`InferenceForward` scores with their weights without
building a Tensor: embedding lookup → LSTM stack
(:func:`~repro.nn.fused.lstm_recurrence`) → mean pooling → FCNN head or
centroid proximity.  The float modules and the quantized runtime
(:mod:`repro.quant.runtime`) build the same class; only their
projections differ.  Its buffers live in a :class:`Workspace` that a
caller allocates once and reuses batch after batch (DESIGN.md §8).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import nn
from ..nn.fused import head_forward, live_rows, lstm_recurrence

__all__ = ["SessionEncoder", "SoftmaxClassifier", "RecurrentLayer",
           "InferenceForward", "Workspace", "centroid_scores"]


class SessionEncoder(nn.Module):
    """Recurrent session encoder (§III-B1).

    Maps embedded sessions ``(batch, time, embedding_dim)`` to encoded
    representations ``(batch, hidden_size)``: the paper's LSTM, run
    through the fused sequence kernel, with mean pooling over the valid
    time steps.
    """

    def __init__(self, embedding_dim: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 2):
        super().__init__()
        # Parameters are allocated in the default dtype active at
        # construction time; forward casts inputs to match.
        self._dtype = nn.get_default_dtype()
        self.rnn = nn.LSTM(embedding_dim, hidden_size, rng,
                           num_layers=num_layers)
        self.output_dim = hidden_size

    def forward(self, x, lengths: np.ndarray | None = None) -> nn.Tensor:
        if not isinstance(x, nn.Tensor):
            x = nn.Tensor(x, dtype=self._dtype)
        elif x.data.dtype != self._dtype:
            x = x.astype(self._dtype)
        return self.rnn.mean_pool(x, lengths)

    @property
    def dtype(self):
        """The parameter/activation dtype inputs must be pre-cast to."""
        return self._dtype

    def inference_forward(self, **kwargs) -> "InferenceForward":
        """This encoder's weights as an :class:`InferenceForward`;
        ``kwargs`` add the embedding table, head and batching."""
        return InferenceForward(recurrent_layers(self.rnn), dtype=self._dtype,
                                **kwargs)

    def encode_numpy(self, x: np.ndarray,
                     lengths: np.ndarray | None = None) -> np.ndarray:
        """Inference: encode embedded sessions without a Tensor; the same
        values :meth:`forward` computes."""
        return self.inference_forward().encode_array(x, lengths)


class SoftmaxClassifier(nn.Module):
    """The paper's two-layer FCNN head (§III-B2).

    Layer 1: Linear + LeakyReLU on the encoded representation.
    Layer 2: Linear to two logits; :meth:`probs` applies softmax.
    """

    def __init__(self, input_dim: int, rng: np.random.Generator,
                 hidden_dim: int | None = None, num_classes: int = 2):
        super().__init__()
        hidden_dim = hidden_dim or input_dim
        self._dtype = nn.get_default_dtype()
        self.fc1 = nn.Linear(input_dim, hidden_dim, rng)
        self.fc2 = nn.Linear(hidden_dim, num_classes, rng)

    def forward(self, z) -> nn.Tensor:
        """Raw logits."""
        if not isinstance(z, nn.Tensor):
            z = nn.Tensor(z, dtype=self._dtype)
        elif z.data.dtype != self._dtype:
            z = z.astype(self._dtype)
        return self.fc2(self.fc1(z).leaky_relu())

    def probs(self, z) -> nn.Tensor:
        """Softmax probabilities ``[f_0(v), f_1(v)]``."""
        return nn.softmax(self.forward(z), axis=-1)

    def head(self) -> tuple:
        """``(fc1, fc2, dtype)`` for :func:`~repro.nn.fused.head_forward`."""
        return (_linear(self.fc1.weight.data, self.fc1.bias.data),
                _linear(self.fc2.weight.data, self.fc2.bias.data),
                self._dtype)

    def probs_numpy(self, z: np.ndarray) -> np.ndarray:
        """Inference: :meth:`probs` without a Tensor, bit for bit."""
        fc1, fc2, dtype = self.head()
        return head_forward(np.asarray(z).astype(dtype, copy=False),
                            fc1, fc2)[-1]

    def predict_numpy(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference: return (labels, malicious-class scores)."""
        probs = self.probs_numpy(z)
        return probs.argmax(axis=1), probs[:, 1]


# ----------------------------------------------------------------------
# The inference forward
# ----------------------------------------------------------------------
def _linear(weight: np.ndarray, bias: np.ndarray) -> Callable:
    """``x @ weight + bias``, as :class:`~repro.nn.Linear` computes it."""
    return lambda x: x @ weight + bias


def _dot_affine(weight: np.ndarray, bias: np.ndarray) -> Callable:
    """``x @ weight + bias`` into ``out``, as the sequence kernels
    compute a layer's input projection."""
    def project(x, out):
        np.dot(x, weight, out=out)
        return np.add(out, bias, out=out)
    return project


@dataclasses.dataclass(frozen=True)
class RecurrentLayer:
    """One LSTM layer's inference weights.

    ``project(x, out=...)`` writes the input projection ``x @ W_x + b``
    of a ``(rows, features)`` array into ``out``; ``w_h`` is the recurrent
    matrix.
    """

    project: Callable[[np.ndarray, np.ndarray], np.ndarray]
    w_h: np.ndarray


def recurrent_layers(lstm: nn.LSTM) -> list[RecurrentLayer]:
    """The float layers of an ``nn.LSTM``."""
    return [RecurrentLayer(_dot_affine(c.w_x.data, c.bias.data), c.w_h.data)
            for c in lstm.cells]


def centroid_scores(features: np.ndarray, centroids: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid inference ([4], the "w/o classifier" ablation).

    The malicious score is the softmin over the two centroid distances,
    so it behaves like a probability for AUC purposes.
    """
    dists = np.linalg.norm(features[:, None, :] - centroids[None, :, :],
                           axis=2)
    gap = dists[:, 0] - dists[:, 1]  # >0 when closer to malicious
    return dists.argmin(axis=1), 1.0 / (1.0 + np.exp(-gap))


class _Grid:
    """Every buffer one encoder forward over ``rows`` sessions writes.

    The stack's layers share the state buffers: a layer's projection
    consumes the previous layer's states before its own recurrence
    overwrites them.  Slot 0 of the state buffers is the all-zero
    initial state and is never written.
    """

    def __init__(self, forward: "InferenceForward", rows: int, time: int,
                 input_dim: int):
        dtype, hidden = forward.dtype, forward.output_dim
        self.emb = np.empty((time, rows, input_dim), dtype)
        self.proj2d = np.empty((time * rows, 4 * hidden), dtype)
        self.proj = self.proj2d.reshape(time, rows, 4 * hidden)
        self.gates = np.empty((time, rows, 4 * hidden), dtype)
        self.h_all = np.zeros((time + 1, rows, hidden), dtype)
        self.c_all = np.zeros((time + 1, rows, hidden), dtype)
        self.tanh_c = np.empty((time, rows, hidden), dtype)
        self.scratch = np.empty((rows, hidden), dtype)
        self.mask = np.empty((time, rows), dtype)
        self.masked = np.empty((time, rows, hidden), dtype)
        self.pooled = np.empty((rows, hidden), dtype)


class Workspace:
    """The id, length and grid buffers of one inference forward.

    ``rows`` sessions of up to ``time`` activities are encoded in chunks
    of the forward's ``batch_size`` rows, each through a preallocated
    :class:`_Grid` sized to its chunk (so every GEMM has the shape
    batching by ``batch_size`` gives it).  A workspace is reused batch
    after batch and may only be used by one thread at a time.
    """

    def __init__(self, forward: "InferenceForward", rows: int, time: int,
                 pad_id: int = 0):
        self.time = time
        self.pad_id = pad_id
        self.ids = np.full((rows, time), pad_id, dtype=np.int64)
        self.lengths = np.zeros(rows, dtype=np.int64)
        chunks = {min(forward.batch_size, rows - start)
                  for start in range(0, rows, forward.batch_size)}
        self.grids = {size: _Grid(forward, size, time, forward.table.shape[1])
                      for size in chunks}

    def load(self, sequences: Iterable[Sequence[int]],
             fill: Sequence[int] = ()) -> None:
        """Write activity-id sequences into the rows, in order, truncated
        to ``time``; rows left over hold ``fill``."""
        ids, lengths, time = self.ids, self.lengths, self.time
        ids.fill(self.pad_id)
        row = -1
        for row, seq in enumerate(sequences):
            seq = seq[:time]
            ids[row, :len(seq)] = seq
            lengths[row] = len(seq)
        ids[row + 1:, :len(fill)] = fill
        lengths[row + 1:] = len(fill)


class InferenceForward:
    """The Tensor-free inference forward of an encoder and its head.

    ``layers`` are the LSTM stack's :class:`RecurrentLayer` list,
    ``head`` an optional ``(fc1, fc2, dtype)`` triple for
    :func:`~repro.nn.fused.head_forward`; ``centroid=True`` classifies
    by proximity to ``centroids`` instead.  ``table`` (the embedding
    rows in the compute dtype), ``max_len`` and ``batch_size`` are what
    scoring activity ids needs.

    Every expression repeats the Tensor forward's (DESIGN.md §7): mean
    pooling multiplies by ``max(length, 1) ** -1``, so the scores are
    bit-identical to ``SessionEncoder`` / ``SoftmaxClassifier`` at
    float32 and float64.  Given lengths, the stack skips dead cells.
    """

    def __init__(self, layers: list[RecurrentLayer], *, dtype,
                 head: tuple | None = None,
                 centroids: np.ndarray | None = None, centroid: bool = False,
                 table: np.ndarray | None = None, max_len: int | None = None,
                 batch_size: int | None = None):
        self.layers = layers
        self.dtype = np.dtype(dtype)
        self.head = head
        self.centroid = centroid
        self.centroids = centroids
        self.table = table
        self.max_len = max_len
        self.batch_size = batch_size
        self.output_dim = layers[0].w_h.shape[0]

    def workspace(self, rows: int, pad_id: int = 0) -> Workspace:
        """Buffers for scoring ``rows`` id sequences at a time."""
        return Workspace(self, rows, self.max_len, pad_id)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, ws: Workspace, out: np.ndarray | None = None
               ) -> np.ndarray:
        """Encode every row loaded into ``ws``.

        Without ``out``, rows that fit one chunk come back as a view into
        ``ws``, valid until its next use.
        """
        rows = len(ws.lengths)
        if out is None and 0 < rows <= self.batch_size:
            return self._encode_rows(ws, 0, rows)
        if out is None:
            out = np.empty((rows, self.output_dim), self.dtype)
        for start in range(0, rows, self.batch_size):
            stop = min(start + self.batch_size, rows)
            out[start:stop] = self._encode_rows(ws, start, stop)
        return out

    def _encode_rows(self, ws: Workspace, start: int, stop: int
                     ) -> np.ndarray:
        grid = ws.grids[stop - start]
        ids = ws.ids[start:stop].T
        if ids.min() < 0 or ids.max() >= len(self.table):
            raise IndexError("activity id outside the embedding table")
        np.take(self.table, ids, axis=0, out=grid.emb, mode="clip")
        return self._encode_grid(grid, ws.lengths[start:stop])

    def encode_array(self, x: np.ndarray,
                     lengths: np.ndarray | None = None) -> np.ndarray:
        """Encode embedded sessions ``(batch, time, features)`` in one
        grid (``lengths=None``: every step is valid)."""
        x = np.asarray(x)
        batch, time, features = x.shape
        grid = _Grid(self, batch, time, features)
        np.copyto(grid.emb, x.transpose(1, 0, 2), casting="unsafe")
        if lengths is not None:
            lengths = np.asarray(lengths)
        return self._encode_grid(grid, lengths)

    def encode_dataset(self, dataset) -> np.ndarray:
        """Encode every session of a dataset, batch by batch."""
        ws = self.workspace(len(dataset), dataset.vocab.pad_id)
        ws.load(session.activities for session in dataset)
        return self.encode(ws, np.empty((len(dataset), self.output_dim),
                                        self.dtype))

    def _encode_grid(self, grid: _Grid, lengths) -> np.ndarray:
        live = None
        if lengths is not None:
            live = live_rows(lengths, grid.emb.shape[0])
        return self._mean_pool(grid, self._states(grid, live), lengths)

    def _states(self, grid: _Grid, live) -> np.ndarray:
        """Run the stack over ``grid.emb``; returns the top layer's
        ``(time, rows, hidden)`` states."""
        time, rows, features = grid.emb.shape
        x2d = grid.emb.reshape(time * rows, features)
        for layer in self.layers:
            layer.project(x2d, out=grid.proj2d)
            lstm_recurrence(grid.proj, layer.w_h, grid.h_all, grid.c_all,
                            grid.gates, grid.tanh_c, grid.scratch,
                            h0_zero=True, live=live)
            x2d = grid.h_all[1:].reshape(time * rows, -1)
        return grid.h_all[1:]

    def _mean_pool(self, grid: _Grid, states, lengths) -> np.ndarray:
        """Masked mean over time (``LSTM.mean_pool``), time-major."""
        time = grid.mask.shape[0]
        if lengths is None:
            grid.mask.fill(1.0)
        else:
            lengths = np.asarray(lengths, dtype=self.dtype)
            np.less(np.arange(time)[:, None], lengths[None, :],
                    out=grid.mask)
        np.multiply(states, grid.mask[:, :, None], out=grid.masked)
        pooled = np.add.reduce(grid.masked, axis=0, out=grid.pooled)
        if lengths is None:
            pooled *= 1.0 / time
        else:
            pooled *= np.maximum(lengths, 1.0)[:, None] ** -1.0
        return pooled

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def probs(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities ``[p(normal), p(malicious)]`` per row: the
        FCNN's softmax, or the centroid score as a two-column
        distribution."""
        if self.centroid:
            _, scores = self._centroid_scores(features)
            return np.stack([1.0 - scores, scores], axis=1)
        fc1, fc2, dtype = self.head
        return head_forward(features.astype(dtype, copy=False), fc1, fc2)[-1]

    def classify(self, features: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, malicious scores)`` per row."""
        if self.centroid:
            return self._centroid_scores(features)
        probs = self.probs(features)
        return probs.argmax(axis=1), probs[:, 1]

    def _centroid_scores(self, features):
        if self.centroids is None:
            raise RuntimeError("centroids unavailable; call fit first")
        return centroid_scores(features, self.centroids)

    def predict(self, dataset, *, return_embeddings: bool = False):
        """``(labels, scores)`` of a dataset, plus the encoded sessions
        with ``return_embeddings=True``."""
        features = self.encode_dataset(dataset)
        labels, scores = self.classify(features)
        if return_embeddings:
            return labels, scores, features
        return labels, scores
