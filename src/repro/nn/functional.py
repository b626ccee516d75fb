"""Composite neural-network functions built on the autograd Tensor."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "one_hot",
    "l2_normalize",
    "cosine_similarity_matrix",
]


def _row_max(x: Tensor, axis: int) -> Tensor:
    """Stop-gradient row maximum for the max-shift trick."""
    return Tensor(x.data.max(axis=axis, keepdims=True))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _row_max(x, axis)
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _row_max(x, axis)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels, num_classes: int) -> np.ndarray:
    """Return a ``(n, num_classes)`` one-hot float array for integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out.reshape(*labels.shape, num_classes)


def nll_loss(log_probs: Tensor, labels) -> Tensor:
    """Negative log-likelihood given log-probabilities and integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    picked = log_probs[np.arange(labels.shape[0]), labels]
    return -picked.mean()


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean categorical cross-entropy from raw logits and integer labels."""
    return nll_loss(log_softmax(logits, axis=-1), labels)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project rows of ``x`` onto the unit sphere.

    The stabilizer sits *inside* the square root: ``sqrt(sum(x²) + eps²)``.
    The historical form ``sqrt(sum(x²)) + eps`` is finite in the forward
    pass but its backward divides by ``sqrt(sum(x²))`` itself, so an
    all-zero row (padding, dead features) produced NaN gradients and a
    subnormal row produced inf — both flushed out by the op fuzzer.
    """
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps * eps) ** 0.5
    return x / norm


def cosine_similarity_matrix(a: Tensor, b: Tensor | None = None) -> Tensor:
    """Pairwise cosine similarities between rows of ``a`` and rows of ``b``.

    Contrastive losses in this repository all reduce to this primitive.
    """
    a_norm = l2_normalize(a)
    b_norm = a_norm if b is None else l2_normalize(b)
    return a_norm @ b_norm.T
