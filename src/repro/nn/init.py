"""Weight initialisation schemes.

Every initializer takes an explicit ``numpy.random.Generator`` so that
all model construction in this repository is reproducible from a seed.
Arrays are returned in the engine's default compute dtype (see
:func:`repro.nn.tensor.set_default_dtype`) unless ``dtype`` is given, so
models built under ``default_dtype("float32")`` train in float32
end-to-end.
"""

from __future__ import annotations

import numpy as np

from .tensor import get_default_dtype

__all__ = ["xavier_uniform", "uniform", "normal", "zeros", "orthogonal"]


def _cast(arr: np.ndarray, dtype) -> np.ndarray:
    return arr.astype(dtype if dtype is not None else get_default_dtype(),
                      copy=False)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator,
                   dtype=None) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return _cast(rng.uniform(-bound, bound, size=shape), dtype)


def uniform(shape: tuple[int, ...], rng: np.random.Generator,
            low: float = -0.1, high: float = 0.1, dtype=None) -> np.ndarray:
    return _cast(rng.uniform(low, high, size=shape), dtype)


def normal(shape: tuple[int, ...], rng: np.random.Generator,
           std: float = 0.02, dtype=None) -> np.ndarray:
    return _cast(rng.normal(0.0, std, size=shape), dtype)


def zeros(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype if dtype is not None
                    else get_default_dtype())


def orthogonal(shape: tuple[int, int], rng: np.random.Generator,
               dtype=None) -> np.ndarray:
    """Orthogonal init (used for LSTM recurrent weights)."""
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(flat)
    q = q[:rows, :cols] if q.shape[0] >= rows else q.T[:rows, :cols]
    return _cast(np.ascontiguousarray(q), dtype)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initializer shapes must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
