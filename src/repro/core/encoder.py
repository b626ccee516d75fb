"""Session encoder and classifier head shared by CLFD's components."""

from __future__ import annotations

import numpy as np

from .. import nn

__all__ = ["SessionEncoder", "SoftmaxClassifier"]


class SessionEncoder(nn.Module):
    """Recurrent session encoder (§III-B1).

    Maps embedded sessions ``(batch, time, embedding_dim)`` to encoded
    representations ``(batch, output_dim)``.  The paper's configuration
    is an LSTM with mean pooling over the valid time steps; GRU and
    bidirectional-LSTM cells and learned attention pooling are provided
    as drop-in variants (``cell`` / ``pooling``).
    """

    _CELLS = ("lstm", "gru", "bilstm")
    _POOLINGS = ("mean", "attention")

    def __init__(self, embedding_dim: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 2,
                 cell: str = "lstm", pooling: str = "mean",
                 fused: bool = True):
        super().__init__()
        if cell not in self._CELLS:
            raise ValueError(f"cell must be one of {self._CELLS}")
        if pooling not in self._POOLINGS:
            raise ValueError(f"pooling must be one of {self._POOLINGS}")
        self.cell = cell
        self.pooling = pooling
        # Parameters are allocated in the default dtype active at
        # construction time; forward casts inputs to match.
        self._dtype = nn.get_default_dtype()
        if cell == "lstm":
            self.rnn = nn.LSTM(embedding_dim, hidden_size, rng,
                               num_layers=num_layers, fused=fused)
            self.output_dim = hidden_size
        elif cell == "gru":
            self.rnn = nn.GRU(embedding_dim, hidden_size, rng,
                              num_layers=num_layers, fused=fused)
            self.output_dim = hidden_size
        else:
            self.rnn = nn.BiLSTM(embedding_dim, hidden_size, rng,
                                 num_layers=num_layers, fused=fused)
            self.output_dim = 2 * hidden_size
        self.hidden_size = hidden_size
        self.attention = (nn.AttentionPooling(self.output_dim, rng)
                          if pooling == "attention" else None)

    def forward(self, x, lengths: np.ndarray | None = None) -> nn.Tensor:
        if not isinstance(x, nn.Tensor):
            x = nn.Tensor(x, dtype=self._dtype)
        elif x.data.dtype != self._dtype:
            x = x.astype(self._dtype)
        if self.attention is None:
            return self.rnn.mean_pool(x, lengths)
        outputs = self.rnn(x)
        if isinstance(outputs, tuple):  # LSTM/GRU return (outputs, state)
            outputs = outputs[0]
        return self.attention(outputs, lengths)

    @property
    def dtype(self):
        """The parameter/activation dtype inputs must be pre-cast to."""
        return self._dtype

    def encode_numpy(self, x: np.ndarray,
                     lengths: np.ndarray | None = None) -> np.ndarray:
        """Inference helper: encode without building an autograd graph."""
        with nn.no_grad():
            return self.forward(x, lengths).data


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

    def predict_numpy(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference: return (labels, malicious-class scores)."""
        with nn.no_grad():
            probs = self.probs(z).data
        return probs.argmax(axis=1), probs[:, 1]
