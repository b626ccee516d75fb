"""Regression tests for confirmed autograd bugs.

Each test pins one fixed bug:

1. Parameters created inside ``no_grad()`` were permanently frozen.
2. ``np.asarray(tensor)`` produced a 0-d object array (no ``__array__``).
3. A second ``backward()`` through the same graph compounded interior
   gradients superlinearly (observed 16x where 4x was correct).
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.module import Parameter


# ----------------------------------------------------------------------
# Bug 1: requires_grad must not be ANDed with the no_grad flag at
# construction time.
# ----------------------------------------------------------------------
def test_parameter_created_under_no_grad_is_trainable():
    with nn.no_grad():
        p = Parameter(np.ones(3))
    assert p.requires_grad
    (p * 2.0).sum().backward()
    np.testing.assert_allclose(p.grad, np.full(3, 2.0))


def test_module_built_under_no_grad_is_trainable():
    with nn.no_grad():
        layer = nn.Linear(4, 2, np.random.default_rng(0))
    x = Tensor(np.ones((3, 4)))
    layer(x).sum().backward()
    assert layer.weight.grad is not None
    assert np.abs(layer.weight.grad).sum() > 0


def test_no_grad_still_blocks_graph_construction():
    x = Tensor(np.ones(3), requires_grad=True)
    with nn.no_grad():
        out = x * 2.0
    assert not out.requires_grad


# ----------------------------------------------------------------------
# Bug 5: grad mode was a process-global, so an inference thread inside
# no_grad() (e.g. the serving engine's batcher) stripped the autograd
# graph out from under a concurrently-training thread — observed as
# "backward() on a tensor that does not require grad" when the stream
# processor fine-tuned a model while its engine kept serving.
# ----------------------------------------------------------------------
def test_grad_mode_is_thread_local():
    import threading

    inside = threading.Event()
    release = threading.Event()

    def hold_no_grad():
        with nn.no_grad():
            inside.set()
            release.wait(timeout=30)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert inside.wait(timeout=30)
        # The other thread sits inside no_grad(); this thread must
        # still build graphs and backpropagate.
        assert nn.is_grad_enabled()
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 3.0))
    finally:
        release.set()
        worker.join(timeout=30)


# ----------------------------------------------------------------------
# Bug 2: the __array__ protocol.
# ----------------------------------------------------------------------
def test_asarray_returns_float_array():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    arr = np.asarray(t)
    assert arr.dtype == t.data.dtype
    assert arr.shape == (2, 2)
    np.testing.assert_array_equal(arr, t.data)


def test_asarray_with_dtype_casts():
    t = Tensor([1.5, 2.5])
    arr = np.asarray(t, dtype=np.float32)
    assert arr.dtype == np.float32
    np.testing.assert_allclose(arr, [1.5, 2.5])


def test_numpy_functions_consume_tensors_directly():
    t = Tensor([3.0, 4.0])
    assert float(np.linalg.norm(t)) == pytest.approx(5.0)
    stacked = np.stack([t, t])
    assert stacked.shape == (2, 2)
    assert stacked.dtype == t.data.dtype


# ----------------------------------------------------------------------
# Bug 3: repeated backward through the same graph.
# ----------------------------------------------------------------------
def test_second_backward_raises_after_graph_freed():
    x = Tensor([2.0], requires_grad=True)
    out = (x * x) * (x * x)
    out.backward()
    np.testing.assert_allclose(x.grad, [32.0])  # d/dx x^4 = 4x^3
    with pytest.raises(RuntimeError, match="freed"):
        out.backward()
    # The first (correct) gradient is left untouched.
    np.testing.assert_allclose(x.grad, [32.0])


def test_retain_graph_backward_accumulates_linearly():
    """With retain_graph, N backward calls give exactly N-times the
    gradient — the bug compounded interior grads superlinearly (16x
    instead of 4x on x^4 after two calls)."""
    x = Tensor([2.0], requires_grad=True)
    out = (x * x) * (x * x)
    out.backward(retain_graph=True)
    out.backward(retain_graph=True)
    np.testing.assert_allclose(x.grad, [64.0])  # exactly 2 * 32


def test_fresh_graphs_still_accumulate_into_leaves():
    x = Tensor([3.0], requires_grad=True)
    (x * 2.0).backward()
    (x * 5.0).backward()
    np.testing.assert_allclose(x.grad, [7.0])
