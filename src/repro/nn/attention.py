"""Transformer components used by the BERT-flavoured baselines.

The paper's Few-Shot [2] and LogBert [48] baselines are BERT-based; this
module provides a compact transformer encoder built on the autograd
substrate so those baselines can be reproduced without PyTorch.
"""

from __future__ import annotations

import numpy as np

from .functional import softmax
from .layers import LayerNorm, Linear
from .module import Module
from .tensor import Tensor

__all__ = [
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "sinusoidal_positions",
]


def sinusoidal_positions(max_len: int, dim: int) -> np.ndarray:
    """Classic fixed sinusoidal positional encodings, shape (max_len, dim)."""
    positions = np.arange(max_len)[:, None].astype(np.float64)
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((max_len, dim))
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: table[:, 1::2].shape[1]])
    return table


class MultiHeadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` parallel heads."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} not divisible by num_heads={num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, rng)
        self.w_k = Linear(dim, dim, rng)
        self.w_v = Linear(dim, dim, rng)
        self.w_o = Linear(dim, dim, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Self-attention over ``x`` of shape (batch, time, dim).

        ``mask`` is an optional (batch, time) array of 1/0 key-validity
        flags; masked keys receive -inf attention scores.
        """
        batch, time, _ = x.shape
        q = self._split_heads(self.w_q(x), batch, time)
        k = self._split_heads(self.w_k(x), batch, time)
        v = self._split_heads(self.w_v(x), batch, time)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            bias = np.where(np.asarray(mask, dtype=bool), 0.0, -1e9)
            scores = scores + Tensor(bias[:, None, None, :])
        attn = softmax(scores, axis=-1)
        context = attn @ v
        merged = context.transpose(0, 2, 1, 3).reshape(batch, time, self.dim)
        return self.w_o(merged)

    def _split_heads(self, x: Tensor, batch: int, time: int) -> Tensor:
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer block: attention + GELU feed-forward."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.attn = MultiHeadAttention(dim, num_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff1 = Linear(dim, ff_dim, rng)
        self.ff2 = Linear(ff_dim, dim, rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = x + self.attn(self.norm1(x), mask=mask)
        return x + self.ff2(self.ff1(self.norm2(x)).gelu())


class TransformerEncoder(Module):
    """Stack of encoder layers with fixed sinusoidal positions."""

    def __init__(self, dim: int, num_heads: int, ff_dim: int, num_layers: int,
                 rng: np.random.Generator, max_len: int = 512):
        super().__init__()
        self.layers = [
            TransformerEncoderLayer(dim, num_heads, ff_dim, rng)
            for _ in range(num_layers)
        ]
        self.positions = sinusoidal_positions(max_len, dim)
        self.final_norm = LayerNorm(dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        _, time, _ = x.shape
        x = x + Tensor(self.positions[:time][None, :, :])
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)

    def mean_pool(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Masked mean over time, mirroring LSTM.mean_pool."""
        batch, time, _ = x.shape
        if lengths is None:
            mask = np.ones((batch, time))
        else:
            lengths = np.asarray(lengths, dtype=np.float64)
            mask = (np.arange(time)[None, :] < lengths[:, None]).astype(np.float64)
        hidden = self.forward(x, mask=mask)
        masked = hidden * Tensor(mask[:, :, None])
        denom = Tensor(np.maximum(mask.sum(axis=1), 1.0)[:, None])
        return masked.sum(axis=1) / denom
