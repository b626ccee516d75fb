"""Fused recurrent kernels: parity with the reference path, dtype
handling, and the op-level profiler hooks."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


def _twin_models(cls, seed=7, input_size=5, hidden=6):
    """Identically initialised fused / unfused instances."""
    fused = cls(input_size, hidden, np.random.default_rng(seed), fused=True)
    ref = cls(input_size, hidden, np.random.default_rng(seed), fused=False)
    return fused, ref


@pytest.mark.parametrize("cls", [nn.LSTM])
def test_fused_matches_reference_forward_and_backward(cls):
    """Acceptance criterion: fused vs unfused max abs diff < 1e-6 in
    float64, for outputs, final states, parameter grads and input grads."""
    fused, ref = _twin_models(cls)
    xs = np.random.default_rng(0).normal(size=(4, 9, 5))
    x_f = Tensor(xs, requires_grad=True)
    x_r = Tensor(xs.copy(), requires_grad=True)

    out_f, states_f = fused(x_f)
    out_r, states_r = ref(x_r)
    np.testing.assert_allclose(out_f.data, out_r.data, atol=1e-6)
    for s_f, s_r in zip(states_f, states_r):
        np.testing.assert_allclose(s_f.data, s_r.data, atol=1e-6)

    # Involve the final state in the loss so its backward path is tested.
    loss_f = (out_f * out_f).sum() + (states_f[-1] * 1.3).sum()
    loss_r = (out_r * out_r).sum() + (states_r[-1] * 1.3).sum()
    loss_f.backward()
    loss_r.backward()
    np.testing.assert_allclose(x_f.grad, x_r.grad, atol=1e-6)
    for p_f, p_r in zip(fused.parameters(), ref.parameters()):
        np.testing.assert_allclose(p_f.grad, p_r.grad, atol=1e-6)


@pytest.mark.parametrize("cls", [nn.LSTM])
def test_fused_mean_pool_matches_reference(cls):
    fused, ref = _twin_models(cls)
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(3, 7, 5))
    lengths = np.array([7, 4, 2])
    pooled_f = fused.mean_pool(Tensor(xs), lengths)
    pooled_r = ref.mean_pool(Tensor(xs), lengths)
    np.testing.assert_allclose(pooled_f.data, pooled_r.data, atol=1e-6)


@pytest.mark.parametrize("cls", [nn.LSTM])
def test_fused_float32_stays_float32(cls):
    with nn.default_dtype(np.float32):
        model = cls(5, 6, np.random.default_rng(2), fused=True)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4, 5)),
                   dtype=np.float32, requires_grad=True)
        out = model(x)[0]
        assert out.data.dtype == np.float32
        (out * out).sum().backward()
        assert x.grad.dtype == np.float32
        for p in model.parameters():
            assert p.data.dtype == np.float32
            assert p.grad.dtype == np.float32


def test_fused_sequence_final_states_match_step_loop():
    # The oracle is a loop of composed-op cell steps.
    rng = np.random.default_rng(8)
    cell = nn.LSTMCell(5, 6, rng)
    xs = rng.normal(size=(3, 4, 5))
    h, c = cell.initial_state(3)
    for t in range(4):
        h, c = cell(Tensor(xs[:, t, :]), (h, c))
    h_seq, h_t, c_t = nn.fused_lstm_sequence(
        Tensor(xs), *cell.initial_state(3), cell.w_x, cell.w_h, cell.bias)
    np.testing.assert_allclose(h_t.data, h.data, atol=1e-12)
    np.testing.assert_allclose(c_t.data, c.data, atol=1e-12)
    np.testing.assert_allclose(h_seq.data[:, -1, :], h.data, atol=1e-12)


def test_fused_works_under_no_grad():
    model = nn.LSTM(5, 6, np.random.default_rng(9), fused=True)
    x = Tensor(np.random.default_rng(10).normal(size=(2, 3, 5)))
    with nn.no_grad():
        out, _ = model(x)
    assert not out.requires_grad
    assert out.shape == (2, 3, 6)


def test_profiler_counts_nodes_and_backward_time():
    model = nn.LSTM(4, 5, np.random.default_rng(11), fused=True)
    x = Tensor(np.random.default_rng(12).normal(size=(2, 6, 4)),
               requires_grad=True)
    with nn.profile() as prof:
        out, _ = model(x)
        (out * out).sum().backward()
    assert prof.total_nodes > 0
    assert "fused_lstm_sequence" in prof.ops
    stats = prof.ops["fused_lstm_sequence"]
    assert stats.backward_calls >= model.num_layers
    assert prof.total_backward_seconds >= 0.0
    assert "fused_lstm_sequence" in prof.summary()


def test_profiler_is_inactive_outside_context():
    with nn.profile() as prof:
        pass
    before = prof.total_nodes
    t = Tensor([1.0], requires_grad=True)
    (t * 2.0).backward()
    assert prof.total_nodes == before
