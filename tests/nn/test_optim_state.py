"""Optimizer state round-trips.

The checkpointing contract these back: capturing state mid-training
and replaying the remaining steps on a fresh optimizer must land on
bit-identical parameters.
"""

import numpy as np
import pytest

import repro.nn as nn


def _quadratic(params):
    """Gradient of 0.5 * ||p||^2 for each parameter: grad = p."""
    for p in params:
        p.grad = p.data.copy()


def _make(optimizer_factory, seed=3):
    rng = np.random.default_rng(seed)
    params = [nn.Parameter(rng.normal(size=(4, 3))),
              nn.Parameter(rng.normal(size=(3,)))]
    return params, optimizer_factory(params)


def _data(params):
    return [p.data.copy() for p in params]


def _adam(params):
    return nn.Adam(params, lr=0.05)


def _replay_from_snapshot(factory, amend=dict):
    """Params after 10 uninterrupted steps, and after 4 steps, a
    snapshot (passed through ``amend``) restored into a fresh optimizer,
    and 6 more steps."""
    params_a, opt_a = _make(factory)
    for _ in range(10):
        _quadratic(params_a)
        opt_a.step()

    params_b, opt_b = _make(factory)
    for _ in range(4):
        _quadratic(params_b)
        opt_b.step()
    snapshot = amend(opt_b.state_dict())
    frozen = _data(params_b)

    params_c, opt_c = _make(factory)
    for p, data in zip(params_c, frozen):
        p.data = data.copy()
    opt_c.load_state_dict(snapshot)
    for _ in range(6):
        _quadratic(params_c)
        opt_c.step()
    return _data(params_a), _data(params_c)


@pytest.mark.parametrize("factory", [_adam], ids=["adam"])
def test_mid_training_capture_replays_bit_identical(factory):
    for a, c in zip(*_replay_from_snapshot(factory)):
        np.testing.assert_array_equal(a, c)


def test_adam_snapshot_with_retired_hyperparameters_replays_bit_identical():
    # Snapshots written while Adam's decays, stabilizer and weight decay
    # were settable carry them; they always held these values.
    def legacy(state):
        return dict(state, beta1=0.9, beta2=0.999, eps=1e-8,
                    weight_decay=0.0)

    for a, c in zip(*_replay_from_snapshot(_adam, amend=legacy)):
        np.testing.assert_array_equal(a, c)


def test_state_dict_buffers_are_copies():
    params, opt = _make(_adam)
    _quadratic(params)
    opt.step()
    snapshot = opt.state_dict()
    snapshot["m"][0][:] = 99.0  # mutate the snapshot, not the optimizer
    _quadratic(params)
    opt.step()
    assert not np.any(opt.state_dict()["m"][0] == 99.0)


def test_adam_state_dict_contents():
    params, opt = _make(_adam)
    for _ in range(3):
        _quadratic(params)
        opt.step()
    state = opt.state_dict()
    assert set(state) == {"lr", "step", "m", "v"}
    assert state["step"] == 3
    assert len(state["m"]) == len(state["v"]) == 2
    assert state["m"][0].shape == (4, 3)


def test_load_state_dict_validates_buffer_count_and_shape():
    params, opt = _make(_adam)
    state = opt.state_dict()
    short = dict(state, m=state["m"][:1])
    with pytest.raises(ValueError, match="buffers"):
        opt.load_state_dict(short)
    wrong = dict(state, v=[np.zeros((2, 2)), state["v"][1]])
    with pytest.raises(ValueError, match="shape"):
        opt.load_state_dict(wrong)


def test_lr_rides_in_optimizer_state():
    params, opt = _make(_adam)
    opt.lr = 0.01
    assert opt.lr == 0.01
    state = opt.state_dict()
    _, fresh = _make(_adam)
    fresh.load_state_dict(state)
    assert fresh.lr == 0.01

