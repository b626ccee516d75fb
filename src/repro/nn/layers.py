"""Core feed-forward layers: Linear, Embedding and LayerNorm."""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype

__all__ = ["Linear", "Embedding", "LayerNorm"]


class Linear(Module):
    """Affine map ``y = x W + b``.

    ``x`` may have any number of leading dimensions; the last dimension
    must equal ``in_features``.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng,
                                            std=0.1))

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings})"
            )
        return self.weight[ids]


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=get_default_dtype()))
        self.beta = Parameter(init.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / ((var + self.eps) ** 0.5)
        return normed * self.gamma + self.beta
