"""Behavioural tests for layers, modules, state dicts and the optimizer."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TinyNet(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng)
        self.fc2 = nn.Linear(8, 2, rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


def test_linear_shapes_and_bias(rng):
    layer = nn.Linear(5, 3, rng)
    out = layer(Tensor(np.zeros((7, 5))))
    assert out.shape == (7, 3)
    np.testing.assert_allclose(out.data, 0.0)  # zero input -> bias (zeros)


def test_linear_no_bias(rng):
    layer = nn.Linear(5, 3, rng, bias=False)
    assert layer.bias is None
    assert len(layer.parameters()) == 1


def test_linear_3d_input(rng):
    layer = nn.Linear(5, 3, rng)
    out = layer(Tensor(np.ones((2, 4, 5))))
    assert out.shape == (2, 4, 3)


def test_embedding_rejects_out_of_range(rng):
    emb = nn.Embedding(10, 4, rng)
    with pytest.raises(IndexError):
        emb(np.array([10]))
    with pytest.raises(IndexError):
        emb(np.array([-1]))


def test_layernorm_normalizes(rng):
    layer = nn.LayerNorm(8)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(10, 8)))
    out = layer(x).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_module_discovers_nested_and_list_parameters(rng):
    net = TinyNet(rng)
    names = [name for name, _ in net.named_parameters()]
    assert "fc1.weight" in names and "fc2.bias" in names

    lstm = nn.LSTM(4, 4, rng, num_layers=2)
    lstm_names = [name for name, _ in lstm.named_parameters()]
    assert "cells.0.w_x" in lstm_names and "cells.1.bias" in lstm_names


def test_zero_grad_clears(rng):
    net = TinyNet(rng)
    (net(Tensor(np.ones((2, 4)))) ** 2).sum().backward()
    assert all(p.grad is not None for p in net.parameters())
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())


def test_state_dict_roundtrip(rng):
    net = TinyNet(rng)
    state = net.state_dict()
    other = TinyNet(np.random.default_rng(7))
    other.load_state_dict(state)
    x = Tensor(np.ones((2, 4)))
    np.testing.assert_allclose(net(x).data, other(x).data)


class WiderNet(nn.Module):
    """TinyNet plus one extra layer — a deliberately mismatched arch."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng)
        self.fc2 = nn.Linear(8, 2, rng)
        self.extra = nn.Linear(2, 2, rng)


def test_load_state_dict_validates(rng):
    net = TinyNet(rng)
    state = net.state_dict()
    bad = dict(state)
    bad.pop("fc1.weight")
    with pytest.raises(KeyError):
        net.load_state_dict(bad)
    wrong = dict(state)
    wrong["fc1.weight"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        net.load_state_dict(wrong)
    # Another architecture's state must not partially load: missing and
    # unexpected keys both raise, naming the keys.
    with pytest.raises(KeyError, match="missing=\\['extra.bias'"):
        WiderNet(rng).load_state_dict(state)
    with pytest.raises(KeyError, match="unexpected=\\['extra.bias'"):
        net.load_state_dict(WiderNet(rng).state_dict())


def test_adam_descends_rosenbrock_slice():
    p = nn.Parameter(np.array([2.0, -1.0]))
    opt = nn.Adam([p], lr=0.05)
    for _ in range(300):
        opt.zero_grad()
        loss = (p[0] - 1.0) ** 2 + (p[1] - 2.0) ** 2
        loss.backward()
        opt.step()
    np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-2)


def test_optimizer_rejects_bad_lr():
    with pytest.raises(ValueError):
        nn.Adam([], lr=0.0)


def test_clip_grad_norm():
    p = nn.Parameter(np.array([3.0, 4.0]))
    p.grad = np.array([3.0, 4.0])
    norm = nn.clip_grad_norm([p], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    np.testing.assert_allclose(p.grad, [0.6, 0.8])


def test_clip_grad_norm_noop_below_threshold():
    p = nn.Parameter(np.array([0.1]))
    p.grad = np.array([0.1])
    nn.clip_grad_norm([p], max_norm=1.0)
    np.testing.assert_allclose(p.grad, [0.1])
