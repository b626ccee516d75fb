"""Low-precision inference kernels: int8 weights, float16 embeddings.

Post-training quantization for the serving tier (see :mod:`repro.quant`)
needs exactly three primitives, and — because a session's score must not
depend on *which* consumer ran the math — each primitive has exactly one
numerical definition here, shared by every caller:

* :func:`quant_matmul_np` — the fused dequantize-on-the-fly GEMM
  ``(x @ q) * scale (+ bias)`` over an int8 weight with
  per-output-channel float scales.  The scale is applied *after* the
  matmul (it commutes onto output columns), so the hot loop multiplies
  against the unscaled matrix instead of materialising a scaled copy
  per step.  ``q`` may be the int8 payload or its cast to ``x``'s
  dtype, which callers keep once per model (no copy is made then).
* :func:`dequantize_np` — expand ``(int8 q, scale)`` back to a float
  matrix (used once per forward for recurrent weights, whose
  reset-gated products do not commute with per-column scales).
* :func:`fp16_embed_np` — row-scaled float16 embedding lookup: tables
  store unit-magnitude float16 rows plus one float32 scale per row
  (vocabulary compression for large generators).

They are plain NumPy with no autograd graph: serving is inference
only, so nothing differentiates through them.

Quantization itself (:func:`quantize_symmetric`,
:func:`quantize_fp16_rows`) is deterministic: scale = maxabs/127 per
channel with round-half-even, so the same float archive always produces
bit-identical quantized arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INT8_LEVELS",
    "quantize_symmetric", "dequantize_np", "quant_matmul_np",
    "quantize_fp16_rows", "fp16_embed_np",
]

#: Symmetric int8 uses the balanced range [-127, 127]; -128 is unused so
#: that negation never saturates asymmetrically.
INT8_LEVELS = 127


# ----------------------------------------------------------------------
# Quantizers (NumPy, deterministic)
# ----------------------------------------------------------------------
def quantize_symmetric(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel symmetric int8 quantization of a weight matrix.

    Channels are the columns of the ``(in, out)`` weights used
    throughout this repository; one float32 scale is kept per output
    channel.  All-zero channels get scale 1.0 so dequantization never
    divides by zero.  Deterministic: ``np.rint`` (round-half-even) over
    ``w / scale``.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ValueError(f"quantize_symmetric expects a matrix, got "
                         f"shape {w.shape}")
    maxabs = np.abs(w).max(axis=0)
    scales = np.where(maxabs > 0.0, maxabs / INT8_LEVELS, 1.0)
    scales = scales.astype(np.float32)
    # Divide in float64 regardless of input dtype so the rounding
    # decision is identical for float32 and float64 sources.
    ratio = w.astype(np.float64) / scales.astype(np.float64)[np.newaxis, :]
    q = np.clip(np.rint(ratio), -INT8_LEVELS, INT8_LEVELS).astype(np.int8)
    return q, scales


def dequantize_np(q: np.ndarray, scales: np.ndarray,
                  dtype=np.float32) -> np.ndarray:
    """Expand int8 weights back to float: ``q * scale`` per column."""
    return q.astype(dtype) * np.asarray(scales, dtype=dtype)


def quant_matmul_np(x: np.ndarray, q: np.ndarray, scales: np.ndarray,
                    bias: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Fused int8 GEMM: ``(x @ q) * scale (+ bias)`` in ``x``'s dtype,
    written into ``out`` when given.

    The one numerical definition of the quantized projection — the
    serving runtime and every test call this, because
    ``(x @ q) * s`` and ``x @ (q * s)`` differ in ULPs and a score must
    be a function of the session alone.
    """
    out = np.matmul(x, q.astype(x.dtype, copy=False), out=out)
    out *= np.asarray(scales, dtype=x.dtype)
    if bias is not None:
        out += np.asarray(bias, dtype=x.dtype)
    return out


def quantize_fp16_rows(table: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Row-scaled float16 compression of an embedding table.

    Each row is normalised by its max magnitude and stored as float16
    (full mantissa use regardless of the row's dynamic range) plus one
    float32 scale.  All-zero rows get scale 1.0.
    """
    table = np.asarray(table)
    if table.ndim != 2:
        raise ValueError(f"quantize_fp16_rows expects a matrix, got "
                         f"shape {table.shape}")
    maxabs = np.abs(table).max(axis=1)
    scales = np.where(maxabs > 0.0, maxabs, 1.0).astype(np.float32)
    packed = (table.astype(np.float64)
              / scales.astype(np.float64)[:, None]).astype(np.float16)
    return packed, scales


def fp16_embed_np(ids: np.ndarray, table: np.ndarray, scales: np.ndarray,
                  dtype=np.float32) -> np.ndarray:
    """Row-scaled float16 lookup: ``table[ids] * scales[ids]``."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = table[ids].astype(dtype)
    return rows * np.asarray(scales, dtype=dtype)[ids][..., None]
