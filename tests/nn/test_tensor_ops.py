"""Unit tests for Tensor arithmetic, reductions and shape operations."""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    concat,
    default_dtype,
    get_default_dtype,
    no_grad,
    split,
    stack,
)


def test_add_broadcast_values_and_grads():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.arange(4.0), requires_grad=True)
    out = a + b
    assert out.shape == (3, 4)
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 4)))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_mul_grad_is_other_operand():
    a = Tensor([2.0, 3.0], requires_grad=True)
    b = Tensor([5.0, 7.0], requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, [5.0, 7.0])
    np.testing.assert_allclose(b.grad, [2.0, 3.0])


def test_sub_and_div():
    a = Tensor([6.0], requires_grad=True)
    b = Tensor([2.0], requires_grad=True)
    out = (a - b) / b
    assert out.item() == pytest.approx(2.0)
    out.backward()
    assert a.grad[0] == pytest.approx(0.5)
    assert b.grad[0] == pytest.approx(-6.0 / 4.0)  # d/db[(a-b)/b] = -a/b^2


def test_pow_gradient():
    x = Tensor([3.0], requires_grad=True)
    (x ** 3).backward()
    assert x.grad[0] == pytest.approx(27.0)


def test_scalar_right_ops():
    x = Tensor([2.0], requires_grad=True)
    out = 1.0 - x + 4.0 / x
    assert out.item() == pytest.approx(1.0)
    out.backward()
    assert x.grad[0] == pytest.approx(-1.0 - 4.0 / 4.0)


def test_exp_log_roundtrip_grad():
    x = Tensor([0.5, 1.5], requires_grad=True)
    out = x.exp().log().sum()
    out.backward()
    np.testing.assert_allclose(x.grad, np.ones(2), atol=1e-12)


def test_sum_axis_keepdims():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = x.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_mean_gradient_scaling():
    x = Tensor(np.ones((2, 5)), requires_grad=True)
    x.mean().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 5), 0.1))


def test_mean_axis_tuple():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    out = x.mean(axis=(0, 2))
    assert out.shape == (3,)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1.0 / 8.0))


def test_max_reduction_splits_ties():
    x = Tensor([[1.0, 3.0, 3.0]], requires_grad=True)
    x.max(axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, [[0.0, 0.5, 0.5]])


def test_reshape_transpose_roundtrip():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = x.reshape(3, 2).transpose()
    assert out.shape == (2, 3)
    out.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_getitem_fancy_index_accumulates_duplicates():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    idx = np.array([0, 0, 2])
    x[idx].sum().backward()
    np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


def test_matmul_2d_grads():
    a = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    b = Tensor(np.random.default_rng(1).normal(size=(4, 2)), requires_grad=True)
    (a @ b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_matmul_batched_weight_broadcast():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    (x @ w).sum().backward()
    assert w.grad.shape == (4, 2)
    assert x.grad.shape == (5, 3, 4)


def test_concat_routes_gradients():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((3, 2)), requires_grad=True)
    out = concat([a, b], axis=0)
    assert out.shape == (5, 2)
    (out * Tensor(np.arange(10.0).reshape(5, 2))).sum().backward()
    np.testing.assert_allclose(a.grad, [[0, 1], [2, 3]])
    np.testing.assert_allclose(b.grad, [[4, 5], [6, 7], [8, 9]])


def test_stack_routes_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    out = stack([a, b], axis=0)
    assert out.shape == (2, 2)
    out[0].sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 1.0])
    np.testing.assert_allclose(b.grad, [0.0, 0.0])


def test_clip_gradient_masked_outside():
    x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
    x.clip(-1.0, 1.0).sum().backward()
    np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = x * 2.0
    assert not out.requires_grad
    with pytest.raises(RuntimeError):
        out.backward()


def test_detach_cuts_graph():
    x = Tensor([2.0], requires_grad=True)
    y = (x * 3.0).detach() * x
    y.backward()
    assert x.grad[0] == pytest.approx(6.0)  # only the second factor contributes


def test_backward_accumulates_over_calls():
    x = Tensor([1.0], requires_grad=True)
    (x * 2.0).backward()
    (x * 3.0).backward()
    assert x.grad[0] == pytest.approx(5.0)


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor([2.0], requires_grad=True)
    y = x * 3.0
    z = y + y  # two paths through y
    z.backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_int_input_promoted_to_float():
    x = Tensor([1, 2, 3])
    assert np.issubdtype(x.data.dtype, np.floating)


def test_backward_raises_without_grad():
    x = Tensor([1.0])
    with pytest.raises(RuntimeError):
        x.backward()


def test_split_even_chunks_values_and_grads():
    x = Tensor(np.arange(12.0).reshape(2, 6), requires_grad=True)
    a, b, c = split(x, 2, axis=1)
    np.testing.assert_allclose(a.data, [[0, 1], [6, 7]])
    np.testing.assert_allclose(c.data, [[4, 5], [10, 11]])
    (a * 1.0 + b * 2.0 + c * 3.0).sum().backward()
    np.testing.assert_allclose(
        x.grad, np.repeat([[1.0, 2.0, 3.0]], 2, axis=0).repeat(2, axis=1))


def test_split_explicit_sections():
    x = Tensor(np.arange(10.0), requires_grad=True)
    a, b = split(x, [3, 7], axis=0)
    assert a.shape == (3,) and b.shape == (7,)
    b.sum().backward()
    np.testing.assert_allclose(x.grad, [0] * 3 + [1] * 7)


def test_split_partial_use_leaves_zero_grad_elsewhere():
    """Unused pieces must not contribute gradient (the shared-buffer
    backward writes only the used slice)."""
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    pieces = split(x, 1, axis=0)
    pieces[2].sum().backward()
    expected = np.zeros((4, 4))
    expected[2] = 1.0
    np.testing.assert_allclose(x.grad, expected)


def test_split_uneven_last_chunk_is_smaller():
    x = Tensor(np.ones(7))
    pieces = split(x, 2, axis=0)
    assert [p.shape[0] for p in pieces] == [2, 2, 2, 1]


def test_split_rejects_mismatched_sections():
    x = Tensor(np.ones(7))
    with pytest.raises(ValueError):
        split(x, [3, 3], axis=0)


def test_default_dtype_context_and_cast():
    assert get_default_dtype() == np.float64
    with default_dtype(np.float32):
        assert get_default_dtype() == np.float32
        t = Tensor([1, 2, 3])           # non-floating input follows default
        assert t.data.dtype == np.float32
    assert get_default_dtype() == np.float64


def test_set_default_dtype_rejects_non_float():
    with pytest.raises(ValueError):
        with default_dtype(np.int32):
            pass


def test_explicit_dtype_casts_and_grad_matches():
    x = Tensor([1.0, 2.0], dtype=np.float32, requires_grad=True)
    assert x.data.dtype == np.float32
    (x * x).sum().backward()
    assert x.grad.dtype == np.float32
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_astype_roundtrips_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x.astype(np.float32)
    assert y.data.dtype == np.float32
    (y * 3.0).sum().backward()
    assert x.grad.dtype == np.float64
    np.testing.assert_allclose(x.grad, [3.0, 3.0])
