"""Behavioural tests for layers, modules, optimizers and serialization."""

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


def test_embedding_load_pretrained_and_freeze(rng):
    emb = nn.Embedding(3, 2, rng)
    matrix = np.arange(6.0).reshape(3, 2)
    emb.load_pretrained(matrix, freeze=True)
    np.testing.assert_allclose(emb(np.array([1])).data, [[2.0, 3.0]])
    assert not emb.weight.requires_grad
    with pytest.raises(ValueError):
        emb.load_pretrained(np.zeros((4, 2)))


def test_layernorm_normalizes(rng):
    layer = nn.LayerNorm(8)
    x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(10, 8)))
    out = layer(x).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-3)


def test_dropout_train_vs_eval(rng):
    drop = nn.Dropout(0.5, rng)
    x = Tensor(np.ones((1000,)))
    out_train = drop(x).data
    assert (out_train == 0.0).any()
    # Inverted dropout keeps the expectation roughly constant.
    assert out_train.mean() == pytest.approx(1.0, abs=0.15)
    drop.eval()
    np.testing.assert_allclose(drop(x).data, 1.0)


def test_dropout_rejects_invalid_p(rng):
    with pytest.raises(ValueError):
        nn.Dropout(1.0, rng)


def test_sequential_chains(rng):
    net = nn.Sequential(nn.Linear(4, 4, rng), nn.Tanh(), nn.Linear(4, 2, rng))
    out = net(Tensor(np.ones((3, 4))))
    assert out.shape == (3, 2)
    assert len(net.parameters()) == 4


def test_activation_modules(rng):
    x = Tensor(np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(nn.LeakyReLU(0.1)(x).data, [-0.1, 0.0, 2.0])
    np.testing.assert_allclose(nn.Tanh()(x).data, np.tanh(x.data))
    assert nn.GELU()(x).data[1] == pytest.approx(0.0)


def test_module_discovers_nested_and_list_parameters(rng):
    net = TinyNet(rng)
    names = [name for name, _ in net.named_parameters()]
    assert "fc1.weight" in names and "fc2.bias" in names
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    lstm = nn.LSTM(4, 4, rng, num_layers=2)
    lstm_names = [name for name, _ in lstm.named_parameters()]
    assert "cells.0.w_x" in lstm_names and "cells.1.bias" in lstm_names


def test_train_eval_propagates(rng):
    net = nn.Sequential(nn.Dropout(0.3, rng), nn.Linear(2, 2, rng))
    net.eval()
    assert not net.stages[0].training
    net.train()
    assert net.stages[0].training


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


def test_save_load_module_roundtrip(rng, tmp_path):
    net = TinyNet(rng)
    path = tmp_path / "net.npz"
    nn.save_module(net, path)
    other = TinyNet(np.random.default_rng(3))
    nn.load_module(other, path)
    x = Tensor(np.ones((1, 4)))
    np.testing.assert_allclose(net(x).data, other(x).data)


class WiderNet(nn.Module):
    """TinyNet plus one extra layer — a deliberately mismatched arch."""

    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(4, 8, rng)
        self.fc2 = nn.Linear(8, 2, rng)
        self.extra = nn.Linear(2, 2, rng)

    def forward(self, x):
        return self.extra(self.fc2(self.fc1(x).relu()))


def test_load_module_strict_rejects_mismatched_archive(rng, tmp_path):
    # Regression: loading an archive from a different architecture used
    # to partially load and silently leave the rest at init values.
    path = tmp_path / "tiny.npz"
    nn.save_module(TinyNet(rng), path)
    target = WiderNet(np.random.default_rng(3))
    with pytest.raises(KeyError, match="missing"):
        nn.load_module(target, path)


def test_load_module_non_strict_reports_skipped_keys(rng, tmp_path):
    path = tmp_path / "tiny.npz"
    source = TinyNet(rng)
    nn.save_module(source, path)
    target = WiderNet(np.random.default_rng(3))
    before = target.extra.weight.data.copy()
    nn.load_module(target, path, strict=False)
    report = target.last_load_report
    assert not report.clean
    assert report.missing == ["extra.bias", "extra.weight"]
    assert report.unexpected == []
    # Shared keys loaded, uncovered ones untouched.
    np.testing.assert_array_equal(target.fc1.weight.data,
                                  source.fc1.weight.data)
    np.testing.assert_array_equal(target.extra.weight.data, before)


def test_load_module_strict_success_reports_clean(rng, tmp_path):
    path = tmp_path / "tiny.npz"
    nn.save_module(TinyNet(rng), path)
    target = TinyNet(np.random.default_rng(3))
    nn.load_module(target, path)
    assert target.last_load_report.clean


def test_sgd_descends_quadratic():
    p = nn.Parameter(np.array([5.0]))
    opt = nn.SGD([p], lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        (p ** 2).sum().backward()
        opt.step()
    assert abs(p.data[0]) < 1e-3


def test_sgd_momentum_faster_than_plain():
    def run(momentum):
        p = nn.Parameter(np.array([5.0]))
        opt = nn.SGD([p], lr=0.02, momentum=momentum)
        for _ in range(30):
            opt.zero_grad()
            (p ** 2).sum().backward()
            opt.step()
        return abs(float(p.data[0]))

    assert run(0.9) < run(0.0)


def test_adam_descends_rosenbrock_slice():
    p = nn.Parameter(np.array([2.0, -1.0]))
    opt = nn.Adam([p], lr=0.05)
    for _ in range(300):
        opt.zero_grad()
        loss = (p[0] - 1.0) ** 2 + (p[1] - 2.0) ** 2
        loss.backward()
        opt.step()
    np.testing.assert_allclose(p.data, [1.0, 2.0], atol=1e-2)


def test_adam_weight_decay_shrinks_params():
    p = nn.Parameter(np.array([1.0]))
    opt = nn.Adam([p], lr=0.01, weight_decay=1.0)
    for _ in range(50):
        opt.zero_grad()
        (p * 0.0).sum().backward()  # zero task gradient; only decay acts
        opt.step()
    assert abs(p.data[0]) < 1.0


def test_optimizer_rejects_bad_lr():
    with pytest.raises(ValueError):
        nn.SGD([], lr=0.0)
    with pytest.raises(ValueError):
        nn.Adam([], lr=0.01, betas=(1.0, 0.9))


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
