"""Tests for the GCE / CCE losses, including the paper's limit claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.losses import cce_loss, gce_loss
from repro.nn import Tensor, one_hot, softmax


def _probs(rows):
    return softmax(Tensor(np.asarray(rows, dtype=float), requires_grad=True))


def test_gce_zero_when_confident_and_correct():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    targets = one_hot([0, 1], 2)
    assert gce_loss(probs, targets, q=0.7).item() == pytest.approx(0.0, abs=1e-6)


def test_gce_maximal_when_confidently_wrong():
    probs = Tensor(np.array([[0.0, 1.0]]))
    targets = one_hot([0], 2)
    # Upper bound of GCE for one-hot target is (1 - floor^q) / q: the
    # probability floor (1e-4) bounds the gradient q * p^(q-1) so the
    # loss saturates just below the theoretical 1/q.
    from repro.losses.robust import _PROB_FLOOR

    bound = (1.0 - _PROB_FLOOR ** 0.5) / 0.5
    assert gce_loss(probs, targets, q=0.5).item() == pytest.approx(bound,
                                                                   abs=1e-5)


def test_gce_q_validation():
    probs = Tensor(np.array([[0.5, 0.5]]))
    for bad_q in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            gce_loss(probs, one_hot([0], 2), q=bad_q)


def test_gce_shape_validation():
    with pytest.raises(ValueError):
        gce_loss(Tensor(np.ones((2, 2)) / 2), np.ones((3, 2)))


def test_gce_at_q1_equals_mae():
    probs = _probs([[0.3, 1.2], [0.7, -0.5], [2.0, 1.0]])
    targets = one_hot([1, 0, 0], 2)
    gce = gce_loss(probs, targets, q=1.0).item()
    # MAE / unhinged loss: mean over rows of sum_k t_k (1 - p_k).
    mae = float((targets * (1.0 - probs.data)).sum(axis=-1).mean())
    assert gce == pytest.approx(mae, abs=1e-10)


def test_theorem1_gce_limits_to_cce_as_q_to_zero():
    """Theorem 1: lim_{q->0} GCE = CCE, also for soft mixup targets."""
    probs = _probs([[0.5, 0.1], [-1.0, 0.3]])
    mixed = np.array([[0.6, 0.4], [0.2, 0.8]])  # mixup targets
    cce = cce_loss(probs, mixed).item()
    for q, tol in ((1e-3, 1e-2), (1e-5, 1e-4)):
        assert gce_loss(probs, mixed, q=q).item() == pytest.approx(cce, abs=tol)


def test_cce_matches_nll_on_hard_labels():
    probs = Tensor(np.array([[0.9, 0.1], [0.2, 0.8]]))
    targets = one_hot([0, 1], 2)
    expected = -(np.log(0.9) + np.log(0.8)) / 2
    assert cce_loss(probs, targets).item() == pytest.approx(expected)


def test_losses_backpropagate():
    logits = Tensor(np.array([[0.2, -0.4], [1.0, 0.5]]), requires_grad=True)
    probs = softmax(logits)
    gce_loss(probs, one_hot([0, 1], 2), q=0.7).backward()
    assert logits.grad is not None
    assert np.isfinite(logits.grad).all()


def test_gce_gradient_downweights_weak_agreement():
    """§III-A1: GCE gradient weight w = t·p^(q-1)·p' gives *less* weight to
    samples whose prediction disagrees with the target than CCE does.

    We check the ratio grad(disagree)/grad(agree) is smaller for GCE.
    """
    def grad_norm(loss_fn, logit_row, label):
        logits = Tensor(np.array([logit_row]), requires_grad=True)
        loss_fn(softmax(logits), one_hot([label], 2)).backward()
        return float(np.abs(logits.grad).sum())

    agree = [2.0, -2.0]      # prediction matches label 0
    disagree = [-2.0, 2.0]   # prediction contradicts label 0
    gce_ratio = (grad_norm(lambda p, t: gce_loss(p, t, 0.7), disagree, 0)
                 / grad_norm(lambda p, t: gce_loss(p, t, 0.7), agree, 0))
    cce_ratio = (grad_norm(cce_loss, disagree, 0)
                 / grad_norm(cce_loss, agree, 0))
    assert gce_ratio < cce_ratio


@settings(max_examples=40, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=1.0),
       logit=st.floats(min_value=-8.0, max_value=8.0))
def test_theorem2_bounds_hold(q, lam, logit):
    """Theorem 2: min(λ,1-λ)·(2-2^(1-q))/q <= l_GCE^λ <= 1/q."""
    probs = softmax(Tensor(np.array([[logit, -logit]])))
    mixed = np.array([[lam, 1.0 - lam]])
    value = gce_loss(probs, mixed, q=q).item()
    lower = min(lam, 1.0 - lam) * (2.0 - 2.0 ** (1.0 - q)) / q
    upper = 1.0 / q
    # The probability floor raises a near-zero p to _PROB_FLOOR, which
    # lowers the loss by at most floor^q / q relative to the exact
    # bound; the theorem holds up to that slack.
    from repro.losses.robust import _PROB_FLOOR

    floor_slack = _PROB_FLOOR ** q / q
    assert lower - floor_slack - 1e-9 <= value <= upper + 1e-9


@settings(max_examples=40, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=1.0),
       a=st.floats(min_value=-5, max_value=5),
       b=st.floats(min_value=-5, max_value=5))
def test_gce_nonnegative_property(q, a, b):
    probs = softmax(Tensor(np.array([[a, b]])))
    value = gce_loss(probs, one_hot([0], 2), q=q).item()
    assert value >= -1e-12


# ----------------------------------------------------------------------
# q -> 0 stability (numerics hardening)
# ----------------------------------------------------------------------
def test_gce_tiny_q_with_near_zero_probs_gradchecks():
    """Regression: with the old 1e-12 probability floor, the gradient
    q*p^(q-1) reached ~1e9 for q=1e-3 on near-zero rows and finite
    differences disagreed by ~3e6.  The unified 1e-4 floor keeps the
    power path bounded, so a plain gradcheck must pass."""
    from repro.nn.gradcheck import check_gradients

    logits = Tensor(np.array([[8.0, -8.0], [-8.0, 8.0], [0.3, -0.2]]),
                    requires_grad=True)
    targets = one_hot([1, 0, 0], 2)  # confidently wrong rows -> p ~ 1e-7

    def fn():
        return gce_loss(softmax(logits), targets, q=1e-3)

    check_gradients(fn, [logits])


def test_gce_tiny_q_gradients_are_bounded():
    probs = Tensor(np.array([[1.0 - 1e-9, 1e-9]]), requires_grad=True)
    targets = one_hot([1], 2)
    loss = gce_loss(probs, targets, q=1e-3)
    loss.backward()
    assert np.isfinite(probs.grad).all()
    # The floor caps |dL/dp| at q * floor^(q-1) ~ 10 for q=1e-3.
    assert np.abs(probs.grad).max() < 100.0

