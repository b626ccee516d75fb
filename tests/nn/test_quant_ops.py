"""Quantized inference kernels: the quantizers and the NumPy kernels.

The three primitives behind the low-precision serving path each have one
numerical definition in :mod:`repro.nn.quant`; these tests pin the
kernels' arithmetic and the quantizers' determinism and error bounds.
"""

import numpy as np
import pytest

from repro.nn.quant import (INT8_LEVELS, dequantize_np, fp16_embed_np,
                            quant_matmul_np, quantize_fp16_rows,
                            quantize_symmetric)


# ----------------------------------------------------------------------
# Quantizers
# ----------------------------------------------------------------------
def test_quantize_symmetric_round_trip_error_bound():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(64, 48))
    q, scales = quantize_symmetric(w)
    assert q.dtype == np.int8
    assert scales.dtype == np.float32
    assert scales.shape == (48,)
    assert np.abs(q).max() <= INT8_LEVELS
    # Symmetric rounding error is at most half a step per channel.
    err = np.abs(dequantize_np(q, scales, dtype=np.float64) - w)
    assert (err <= scales[None, :] * 0.5 + 1e-12).all()


def test_quantize_symmetric_zero_channel_gets_unit_scale():
    w = np.zeros((4, 3))
    w[:, 1] = [1.0, -2.0, 0.5, 0.0]
    q, scales = quantize_symmetric(w)
    assert scales[0] == 1.0 and scales[2] == 1.0
    assert (q[:, 0] == 0).all() and (q[:, 2] == 0).all()
    np.testing.assert_allclose(scales[1], 2.0 / INT8_LEVELS)


def test_quantize_symmetric_deterministic_across_source_dtypes():
    rng = np.random.default_rng(1)
    w64 = rng.normal(size=(16, 8))
    q64, s64 = quantize_symmetric(w64)
    q64b, s64b = quantize_symmetric(w64.copy())
    np.testing.assert_array_equal(q64, q64b)
    np.testing.assert_array_equal(s64, s64b)


def test_quantize_symmetric_rejects_non_matrix():
    with pytest.raises(ValueError):
        quantize_symmetric(np.zeros(5))


def test_quantize_fp16_rows_round_trip():
    rng = np.random.default_rng(2)
    # Rows spanning wildly different dynamic ranges.
    table = rng.normal(size=(10, 6)) * (10.0 ** rng.integers(-3, 4, 10))[:, None]
    packed, scales = quantize_fp16_rows(table)
    assert packed.dtype == np.float16
    assert scales.dtype == np.float32
    # Row-wise scaling keeps relative error at float16 resolution even
    # for large-magnitude rows.
    restored = fp16_embed_np(np.arange(10), packed, scales, dtype=np.float64)
    np.testing.assert_allclose(restored, table, rtol=1e-3, atol=0)


def test_quantize_fp16_rows_zero_row_unit_scale():
    table = np.zeros((3, 4))
    table[1] = [1.0, -1.0, 0.5, 0.25]
    packed, scales = quantize_fp16_rows(table)
    assert scales[0] == 1.0 and scales[2] == 1.0
    assert (packed[0] == 0).all()


def test_quantize_fp16_rows_rejects_non_matrix():
    with pytest.raises(ValueError):
        quantize_fp16_rows(np.zeros(4))


# ----------------------------------------------------------------------
# NumPy kernels
# ----------------------------------------------------------------------
def test_quant_matmul_np_matches_reference_and_dtype():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(8, 5))
    q, s = quantize_symmetric(w)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    bias = rng.normal(size=5).astype(np.float32)
    out = quant_matmul_np(x, q, s, bias)
    assert out.dtype == np.float32
    expected = (x @ q.astype(np.float32)) * s.astype(np.float32) + bias
    np.testing.assert_array_equal(out, expected)
    # And it approximates the float GEMM within the quantization error.
    np.testing.assert_allclose(out, x @ w.astype(np.float32) + bias,
                               atol=float(np.abs(x).sum(axis=1).max()
                                          * s.max()))


def test_quant_matmul_np_takes_a_cast_payload():
    rng = np.random.default_rng(4)
    q, s = quantize_symmetric(rng.normal(size=(8, 5)))
    x = rng.normal(size=(4, 8)).astype(np.float32)
    cast = q.astype(np.float32)
    np.testing.assert_array_equal(quant_matmul_np(x, cast, s),
                                  quant_matmul_np(x, q, s))


def test_fp16_embed_np_lookup():
    rng = np.random.default_rng(4)
    table, scales = quantize_fp16_rows(rng.normal(size=(7, 3)))
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    out = fp16_embed_np(ids, table, scales)
    assert out.shape == (2, 3, 3)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(
        out[0, 1], table[3].astype(np.float32) * scales[3])
