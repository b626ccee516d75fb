"""Core feed-forward layers: Linear, Embedding, LayerNorm, Dropout, etc."""

from __future__ import annotations

import numpy as np

from . import init
from .functional import dropout_mask
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype

__all__ = [
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "LeakyReLU",
    "Tanh",
    "GELU",
]


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

    def load_pretrained(self, matrix: np.ndarray, freeze: bool = False) -> None:
        """Install externally trained vectors (e.g. word2vec)."""
        matrix = np.asarray(matrix, dtype=self.weight.data.dtype)
        if matrix.shape != (self.num_embeddings, self.embedding_dim):
            raise ValueError(
                f"expected {(self.num_embeddings, self.embedding_dim)}, "
                f"got {matrix.shape}"
            )
        self.weight.data = matrix.copy()
        if freeze:
            self.weight.requires_grad = False


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


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        return x * Tensor(dropout_mask(x.shape, self.p, self._rng))


class Sequential(Module):
    """Chain modules; also accepts bare callables (e.g. Tensor methods)."""

    def __init__(self, *stages):
        super().__init__()
        self.stages = list(stages)

    def forward(self, x):
        for stage in self.stages:
            x = stage(x)
        return x

    def append(self, stage) -> "Sequential":
        self.stages.append(stage)
        return self


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()
