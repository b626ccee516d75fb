"""Finite-difference gradient checks for every differentiable building block."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor, check_gradients


def _rand(shape, seed, scale=0.5):
    return np.random.default_rng(seed).normal(scale=scale, size=shape)


@pytest.mark.parametrize("op", [
    lambda x: x.exp(),
    lambda x: x.tanh(),
    lambda x: x.sigmoid(),
    lambda x: x.relu(),
    lambda x: x.leaky_relu(),
    lambda x: x.gelu(),
    lambda x: x * x,
    lambda x: (x + 1.0) * (x - 2.0),
])
def test_elementwise_ops_gradcheck(op):
    x = Tensor(_rand((3, 4), 0) + 0.1, requires_grad=True)
    check_gradients(lambda: op(x).sum(), [x])


def test_log_gradcheck_positive_domain():
    x = Tensor(np.abs(_rand((3, 3), 1)) + 0.5, requires_grad=True)
    check_gradients(lambda: x.log().sum(), [x])


def test_pow_gradcheck():
    x = Tensor(np.abs(_rand((4,), 2)) + 0.5, requires_grad=True)
    check_gradients(lambda: (x ** 0.7).sum(), [x])


def test_matmul_gradcheck_both_sides():
    a = Tensor(_rand((3, 4), 3), requires_grad=True)
    b = Tensor(_rand((4, 2), 4), requires_grad=True)
    check_gradients(lambda: ((a @ b) ** 2).sum(), [a, b])


def test_matmul_batched_by_vector_gradcheck():
    """(B, T, D) @ (D,): a batched matrix times a vector."""
    a = Tensor(_rand((2, 3, 4), 30), requires_grad=True)
    v = Tensor(_rand((4,), 31), requires_grad=True)
    check_gradients(lambda: ((a @ v) ** 2).sum(), [a, v])


def test_matmul_matrix_by_vector_gradcheck():
    a = Tensor(_rand((3, 4), 32), requires_grad=True)
    v = Tensor(_rand((4,), 33), requires_grad=True)
    check_gradients(lambda: ((a @ v) ** 2).sum(), [a, v])


def test_batched_matmul_gradcheck():
    a = Tensor(_rand((2, 3, 4), 5), requires_grad=True)
    b = Tensor(_rand((2, 4, 3), 6), requires_grad=True)
    check_gradients(lambda: ((a @ b).tanh()).sum(), [a, b])


def test_softmax_gradcheck():
    x = Tensor(_rand((4, 5), 7), requires_grad=True)
    weights = Tensor(_rand((4, 5), 8))
    check_gradients(lambda: (nn.softmax(x) * weights).sum(), [x])


def test_log_softmax_gradcheck():
    x = Tensor(_rand((3, 4), 9), requires_grad=True)
    check_gradients(lambda: (nn.log_softmax(x) ** 2).sum(), [x])


def test_cross_entropy_gradcheck():
    logits = Tensor(_rand((5, 2), 10), requires_grad=True)
    labels = np.array([0, 1, 1, 0, 1])
    check_gradients(lambda: nn.cross_entropy(logits, labels), [logits])


def test_l2_normalize_gradcheck():
    x = Tensor(_rand((3, 6), 11) + 0.2, requires_grad=True)
    target = Tensor(_rand((3, 6), 12))
    check_gradients(lambda: ((nn.l2_normalize(x) - target) ** 2).sum(), [x])


def test_cosine_similarity_matrix_gradcheck():
    a = Tensor(_rand((4, 5), 13) + 0.1, requires_grad=True)
    check_gradients(lambda: nn.cosine_similarity_matrix(a).sum(), [a])


def test_linear_layer_gradcheck():
    rng = np.random.default_rng(14)
    layer = nn.Linear(4, 3, rng)
    x = Tensor(_rand((2, 4), 15), requires_grad=True)
    check_gradients(lambda: (layer(x) ** 2).sum(),
                    [x, layer.weight, layer.bias])


def test_layernorm_gradcheck():
    layer = nn.LayerNorm(6)
    x = Tensor(_rand((3, 6), 16), requires_grad=True)
    target = Tensor(_rand((3, 6), 17))
    check_gradients(lambda: ((layer(x) - target) ** 2).sum(),
                    [x, layer.gamma, layer.beta])


def test_embedding_gradcheck():
    rng = np.random.default_rng(18)
    emb = nn.Embedding(7, 3, rng)
    ids = np.array([[0, 2, 2], [5, 1, 6]])
    check_gradients(lambda: (emb(ids) ** 2).sum(), [emb.weight])


def _lstm_step(cell, x, fused):
    """One LSTM cell step: the composed cell, or a one-step run of the
    fused sequence kernel over the same weights."""
    if not fused:
        return cell(x, cell.initial_state(x.shape[0]))
    _, h, c = nn.fused_lstm_sequence(
        x.reshape(x.shape[0], 1, x.shape[1]),
        *cell.initial_state(x.shape[0]), cell.w_x, cell.w_h, cell.bias)
    return h, c


@pytest.mark.parametrize("fused", [True, False])
def test_lstm_cell_gradcheck(fused):
    rng = np.random.default_rng(19)
    cell = nn.LSTMCell(3, 4, rng)
    x = Tensor(_rand((2, 3), 20), requires_grad=True)

    def fn():
        h, c = _lstm_step(cell, x, fused)
        return (h * h).sum() + (c * c).sum()

    check_gradients(fn, [x, cell.w_x, cell.w_h, cell.bias], atol=1e-4)


@pytest.mark.parametrize("fused", [True, False])
def test_lstm_sequence_gradcheck(fused):
    rng = np.random.default_rng(21)
    lstm = nn.LSTM(3, 4, rng, num_layers=2, fused=fused)
    x = Tensor(_rand((2, 5, 3), 22), requires_grad=True)
    params = [x] + lstm.parameters()
    check_gradients(lambda: (lstm.mean_pool(x) ** 2).sum(), params, atol=1e-4)


def test_fused_lstm_sequence_kernel_gradcheck():
    """The whole-layer kernel against finite differences, including the
    final-state outputs (which exercise the two-output backward wiring)."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(scale=0.5, size=(2, 4, 3)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    w_x = Tensor(rng.normal(scale=0.3, size=(3, 16)), requires_grad=True)
    w_h = Tensor(rng.normal(scale=0.3, size=(4, 16)), requires_grad=True)
    bias = Tensor(rng.normal(scale=0.3, size=(16,)), requires_grad=True)

    def fn():
        h_seq, h_t, c_t = nn.fused_lstm_sequence(x, h0, c0, w_x, w_h, bias)
        return (h_seq * h_seq).sum() + (h_t * 0.5).sum() + (c_t * 1.7).sum()

    check_gradients(fn, [x, h0, c0, w_x, w_h, bias], atol=1e-4)


def test_split_gradcheck():
    x = Tensor(_rand((3, 6), 45), requires_grad=True)

    def fn():
        a, b, c = nn.split(x, 2, axis=1)
        return (a * a).sum() + (b * 3.0).sum() + c.tanh().sum()

    check_gradients(fn, [x])


def test_fused_lstm_cell_gradcheck_float32():
    """The fused LSTM kernel (``fused_lstm_sequence``) in float32.

    float32 needs a larger step and looser tolerance: the finite
    difference itself only carries ~3 significant digits."""
    with nn.default_dtype(np.float32):
        rng = np.random.default_rng(46)
        cell = nn.LSTMCell(3, 4, rng)
        x = Tensor(_rand((2, 3, 3), 47), requires_grad=True,
                   dtype=np.float32)

        def fn():
            h_seq, h_t, c_t = nn.fused_lstm_sequence(
                x, *cell.initial_state(2), cell.w_x, cell.w_h, cell.bias)
            return ((h_seq * h_seq).sum() + (c_t * c_t).sum()
                    ).astype(np.float64)

        check_gradients(fn, [x, cell.w_x, cell.w_h, cell.bias],
                        eps=1e-2, atol=1e-1, rtol=1e-2)


def test_attention_gradcheck():
    rng = np.random.default_rng(23)
    attn = nn.MultiHeadAttention(4, 2, rng)
    x = Tensor(_rand((2, 3, 4), 24), requires_grad=True)
    check_gradients(lambda: (attn(x) ** 2).sum(), [x], atol=1e-4)


def test_transformer_layer_gradcheck():
    rng = np.random.default_rng(25)
    layer = nn.TransformerEncoderLayer(4, 2, 8, rng)
    x = Tensor(_rand((1, 3, 4), 26), requires_grad=True)
    check_gradients(lambda: (layer(x) ** 2).sum(), [x], atol=1e-4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_sum_of_products_gradcheck_property(rows, cols, seed):
    """Property: autograd matches finite differences on random bilinear maps."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    b = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    check_gradients(lambda: (a * b + a ** 2).sum(), [a, b])


# ----------------------------------------------------------------------
# Numerics hardening: per-dtype defaults, failure collection, and the
# l2_normalize zero-row regression.
# ----------------------------------------------------------------------
def test_l2_normalize_zero_row_has_finite_gradients():
    """Regression: ``sqrt(sum(x²)) + eps`` was finite forward but its
    backward divided by the bare ``sqrt(sum(x²))``, so an all-zero row
    produced NaN gradients.  The stabilizer now sits inside the root."""
    x = Tensor(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]),
               requires_grad=True)
    out = nn.l2_normalize(x)
    assert np.isfinite(out.data).all()
    (out * out).sum().backward()
    assert np.isfinite(x.grad).all()


def test_l2_normalize_subnormal_row_has_finite_gradients():
    x = Tensor(np.array([[1e-310, -1e-310, 0.0]]), requires_grad=True)
    out = nn.l2_normalize(x)
    assert np.isfinite(out.data).all()
    out.sum().backward()
    assert np.isfinite(x.grad).all()


def test_l2_normalize_gradcheck_away_from_zero():
    x = Tensor(_rand((3, 4), 91), requires_grad=True)
    check_gradients(lambda: (nn.l2_normalize(x) ** 2).sum() * 0.5, [x])


def test_gradcheck_float32_defaults_avoid_spurious_failures():
    """float32 forward noise (~1e-7 relative) would swamp the float64
    step 1e-6; the per-dtype defaults pick a coarser step and looser
    tolerances, so a *correct* float32 op must pass with no explicit
    eps/atol/rtol arguments."""
    x = Tensor(_rand((3, 3), 92).astype(np.float32), requires_grad=True)
    check_gradients(lambda: (x ** 2).sum().astype(np.float64), [x])


def test_gradcheck_defaults_pick_loosest_dtype():
    from repro.nn.gradcheck import _DTYPE_DEFAULTS, _defaults_for

    f32 = Tensor(np.ones(2, dtype=np.float32))
    f64 = Tensor(np.ones(2, dtype=np.float64))
    assert _defaults_for([f64]) == _DTYPE_DEFAULTS[np.dtype(np.float64)]
    assert _defaults_for([f32]) == _DTYPE_DEFAULTS[np.dtype(np.float32)]
    # Mixed inputs take the float32 (loosest) settings.
    assert _defaults_for([f64, f32]) == _DTYPE_DEFAULTS[np.dtype(np.float32)]


def test_gradcheck_collects_all_failures_when_not_raising():
    from repro.nn.gradcheck import GradcheckFailure

    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

    def fn():
        def backward():
            # Wrong for every entry: claims 3x instead of 2x.
            x._accumulate(out.grad * 3.0 * x.data)

        out = Tensor._make(x.data ** 2, (x,), backward)
        return out.sum()

    failures = check_gradients(fn, [x], raise_on_first=False)
    assert len(failures) == 3
    assert all(isinstance(f, GradcheckFailure) for f in failures)
    assert {f.flat_index for f in failures} == {0, 1, 2}
    assert all("analytic" in str(f) for f in failures)
    # The default mode still raises.
    with pytest.raises(AssertionError, match="gradient mismatch"):
        check_gradients(fn, [x])
