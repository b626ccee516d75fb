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


@pytest.mark.parametrize("factory", [
    lambda ps: nn.SGD(ps, lr=0.1),
    lambda ps: nn.SGD(ps, lr=0.1, momentum=0.9, weight_decay=0.01),
    lambda ps: nn.Adam(ps, lr=0.05),
    lambda ps: nn.Adam(ps, lr=0.05, betas=(0.8, 0.99), eps=1e-6,
                       weight_decay=0.02),
], ids=["sgd", "sgd-momentum", "adam", "adam-tuned"])
def test_mid_training_capture_replays_bit_identical(factory):
    # Reference: 10 uninterrupted steps.
    params_a, opt_a = _make(factory)
    for _ in range(10):
        _quadratic(params_a)
        opt_a.step()

    # Capture after 4 steps, restore into a fresh optimizer, replay 6.
    params_b, opt_b = _make(factory)
    for _ in range(4):
        _quadratic(params_b)
        opt_b.step()
    snapshot = opt_b.state_dict()
    frozen = _data(params_b)

    params_c, opt_c = _make(factory)
    for p, data in zip(params_c, frozen):
        p.data = data.copy()
    opt_c.load_state_dict(snapshot)
    for _ in range(6):
        _quadratic(params_c)
        opt_c.step()

    for a, c in zip(_data(params_a), _data(params_c)):
        np.testing.assert_array_equal(a, c)


def test_state_dict_buffers_are_copies():
    params, opt = _make(lambda ps: nn.Adam(ps, lr=0.05))
    _quadratic(params)
    opt.step()
    snapshot = opt.state_dict()
    snapshot["m"][0][:] = 99.0  # mutate the snapshot, not the optimizer
    _quadratic(params)
    opt.step()
    assert not np.any(opt.state_dict()["m"][0] == 99.0)


def test_adam_state_dict_contents():
    params, opt = _make(lambda ps: nn.Adam(ps, lr=0.05, betas=(0.8, 0.99)))
    for _ in range(3):
        _quadratic(params)
        opt.step()
    state = opt.state_dict()
    assert state["step"] == 3
    assert state["beta1"] == 0.8 and state["beta2"] == 0.99
    assert len(state["m"]) == len(state["v"]) == 2
    assert state["m"][0].shape == (4, 3)


def test_load_state_dict_validates_buffer_count_and_shape():
    params, opt = _make(lambda ps: nn.SGD(ps, lr=0.1, momentum=0.9))
    state = opt.state_dict()
    short = dict(state, velocity=state["velocity"][:1])
    with pytest.raises(ValueError, match="buffers"):
        opt.load_state_dict(short)
    wrong = dict(state,
                 velocity=[np.zeros((2, 2)), state["velocity"][1]])
    with pytest.raises(ValueError, match="shape"):
        opt.load_state_dict(wrong)


def test_lr_rides_in_optimizer_state():
    params, opt = _make(lambda ps: nn.SGD(ps, lr=0.1))
    opt.lr = 0.05
    assert opt.lr == 0.05
    state = opt.state_dict()
    _, fresh = _make(lambda ps: nn.SGD(ps, lr=0.1))
    fresh.load_state_dict(state)
    assert fresh.lr == 0.05

