"""Executable checks of the paper's theoretical results (§VI, §VII).

Each theorem is verified numerically: limits by evaluation at small q,
bounds by property-based sampling, risk bounds by Monte-Carlo
estimation with a fixed classifier, and the gradient claims by
comparing autograd output against the closed forms in the paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.augment import sample_mixup
from repro.losses import cce_loss, gce_loss, sup_con_loss
from repro.nn import Tensor, one_hot, softmax


def _random_probs(rng, n):
    logits = rng.normal(size=(n, 2))
    return softmax(Tensor(logits))


# ----------------------------------------------------------------------
# Theorem 1: lim_{q->0} l_GCE^λ = l_CCE^λ
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=1000))
def test_theorem1_gce_to_cce_limit(lam, seed):
    rng = np.random.default_rng(seed)
    probs = _random_probs(rng, 4)
    targets = lam * one_hot([0, 1, 0, 1], 2) + (1 - lam) * one_hot([1, 0, 1, 0], 2)
    cce = cce_loss(probs, targets).item()
    gce_small_q = gce_loss(probs, targets, q=1e-6).item()
    assert gce_small_q == pytest.approx(cce, rel=1e-3, abs=1e-4)


# ----------------------------------------------------------------------
# Theorem 2: min(λ, 1-λ)(2 - 2^{1-q})/q <= l_GCE^λ <= 1/q
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(q=st.floats(min_value=0.05, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=1000))
def test_theorem2_mixup_gce_bounds(q, lam, seed):
    rng = np.random.default_rng(seed)
    probs = _random_probs(rng, 1)
    target = np.array([[lam, 1.0 - lam]])
    value = gce_loss(probs, target, q=q).item()
    lower = min(lam, 1.0 - lam) * (2.0 - 2.0 ** (1.0 - q)) / q
    assert lower - 1e-9 <= value <= 1.0 / q + 1e-9


# ----------------------------------------------------------------------
# Theorem 3: uniform noise risk bound R̃ <= R + η/q
# ----------------------------------------------------------------------
@pytest.mark.parametrize("eta", [0.1, 0.3, 0.45])
def test_theorem3_uniform_noise_risk_bound(eta):
    rng = np.random.default_rng(0)
    n, q = 4000, 0.7
    truth = (rng.random(n) < 0.2).astype(int)
    flips = rng.random(n) < eta
    noisy = np.where(flips, 1 - truth, truth)

    probs = _random_probs(rng, n)
    lam = rng.beta(0.5, 0.5, size=n)
    partner = rng.permutation(n)  # mixup partners (shared across risks)

    def mixup_targets(labels):
        onehot = one_hot(labels, 2)
        return lam[:, None] * onehot + (1 - lam)[:, None] * onehot[partner]

    clean_risk = gce_loss(probs, mixup_targets(truth), q=q).item()
    noisy_risk = gce_loss(probs, mixup_targets(noisy), q=q).item()
    assert noisy_risk <= clean_risk + eta / q + 0.05  # MC slack


# ----------------------------------------------------------------------
# Theorem 4: class-dependent noise risk bound
# ----------------------------------------------------------------------
def test_theorem4_class_dependent_risk_bound():
    rng = np.random.default_rng(1)
    n, q = 4000, 0.7
    eta_10, eta_01 = 0.3, 0.45
    truth = (rng.random(n) < 0.3).astype(int)
    draws = rng.random(n)
    flips = np.where(truth == 1, draws < eta_10, draws < eta_01)
    noisy = np.where(flips, 1 - truth, truth)

    probs = _random_probs(rng, n)
    lam = rng.beta(0.5, 0.5, size=n)
    partner = rng.permutation(n)

    def mixup_targets(labels):
        onehot = one_hot(labels, 2)
        return lam[:, None] * onehot + (1 - lam)[:, None] * onehot[partner]

    noisy_risk = gce_loss(probs, mixup_targets(noisy), q=q).item()

    clean_targets = mixup_targets(truth)
    pos, neg = truth == 1, truth == 0
    risk_pos = gce_loss(probs[pos], clean_targets[pos], q=q).item()
    risk_neg = gce_loss(probs[neg], clean_targets[neg], q=q).item()
    tau1 = (noisy == 1).mean()
    tau0 = (noisy == 0).mean()
    bound = (tau1 * (risk_pos + eta_10 / q)
             + tau0 * (risk_neg + eta_01 / q))
    assert noisy_risk <= bound + 0.05  # MC slack


# ----------------------------------------------------------------------
# Theorem 5 (operational form): confidence weighting bounds L_Sup by the
# oracle loss as corrections become perfect, and never amplifies pairs.
# ----------------------------------------------------------------------
def test_theorem5_weighted_loss_bounded_by_oracle():
    rng = np.random.default_rng(2)
    n = 12
    z = Tensor(rng.normal(size=(n, 6)))
    truth = np.array([0, 1] * (n // 2))

    # Perfect corrector (labels = truth, c = 1): L_Sup == L_Orc exactly.
    weighted = sup_con_loss(z, truth, confidences=np.ones(n)).item()
    oracle = sup_con_loss(z, truth, variant="unweighted").item()
    assert weighted == pytest.approx(oracle)

    # Imperfect confidences shrink the loss below the oracle level:
    # uncertain pairs contribute less learning signal, never more.
    conf = rng.uniform(0.5, 1.0, size=n)
    damped = sup_con_loss(z, truth, confidences=conf).item()
    assert damped <= oracle + 1e-12


def test_theorem5_low_confidence_pairs_contribute_less_gradient():
    """The c_i c_p factor scales each pair's gradient (Eq. 7)."""
    rng = np.random.default_rng(3)
    z_data = rng.normal(size=(6, 4))
    labels = np.array([0, 0, 0, 1, 1, 1])

    def encoder_grad(conf):
        z = Tensor(z_data, requires_grad=True)
        sup_con_loss(z, labels, confidences=conf).backward()
        return np.abs(z.grad).sum()

    high = encoder_grad(np.ones(6))
    low = encoder_grad(np.full(6, 0.6))
    assert low < high


# ----------------------------------------------------------------------
# Eq. 4: GCE gradient weight w_ik = m_ik * f_k^{q-1}
# ----------------------------------------------------------------------
def test_eq4_gce_gradient_weights_match_autograd():
    rng = np.random.default_rng(4)
    q = 0.7
    probs_data = rng.dirichlet(np.ones(2), size=5)
    targets = rng.dirichlet(np.ones(2), size=5)
    probs = Tensor(probs_data, requires_grad=True)
    gce_loss(probs, targets, q=q).backward()
    analytic = -targets * probs_data ** (q - 1.0) / len(targets)
    np.testing.assert_allclose(probs.grad, analytic, rtol=1e-6)


# ----------------------------------------------------------------------
# §VII: loss-variant analysis
# ----------------------------------------------------------------------
def test_s7_unweighted_equals_weighted_at_full_confidence():
    """When the corrector is fully confident (c ≈ 1), ∂L_Sup ≈ ∂L_Sup^uw."""
    rng = np.random.default_rng(5)
    z_data = rng.normal(size=(8, 5))
    labels = rng.integers(0, 2, size=8)

    def grad(variant, conf=None):
        z = Tensor(z_data, requires_grad=True)
        sup_con_loss(z, labels, confidences=conf, variant=variant).backward()
        return z.grad

    np.testing.assert_allclose(grad("weighted", np.ones(8)),
                               grad("unweighted"))


def test_s7_filtered_gradient_is_masked_unweighted_gradient():
    """∂L_Sup^ftr keeps exactly the pairs with c_i c_p > τ (Eq. 21)."""
    rng = np.random.default_rng(6)
    z_data = rng.normal(size=(6, 4))
    labels = np.array([0, 0, 1, 1, 0, 1])
    conf = np.array([0.95, 0.95, 0.6, 0.6, 0.95, 0.95])
    tau = 0.7

    z = Tensor(z_data, requires_grad=True)
    sup_con_loss(z, labels, confidences=conf, variant="filtered",
                 threshold=tau).backward()
    filtered_grad = z.grad.copy()

    # Equivalent explicit construction: binary weights as confidences is
    # NOT the same (weights multiply), so check via the weighted variant
    # with 0/1 "confidences" constructed per-pair — here all surviving
    # pairs are among the c=0.95 rows, whose pairwise products > τ.
    survivors = conf > np.sqrt(tau)
    z2 = Tensor(z_data, requires_grad=True)
    # Pairs among survivors only — realised by zeroing the others.
    pseudo_conf = survivors.astype(float)
    sup_con_loss(z2, labels, confidences=pseudo_conf,
                 variant="filtered", threshold=tau).backward()
    np.testing.assert_allclose(filtered_grad, z2.grad)


def test_s7_filter_threshold_extremes():
    """τ ≈ 1 discards everything; τ ≈ 0 recovers the unweighted loss."""
    rng = np.random.default_rng(7)
    z = Tensor(rng.normal(size=(6, 4)))
    labels = np.array([0, 1, 0, 1, 0, 1])
    conf = rng.uniform(0.6, 0.9, size=6)
    all_dropped = sup_con_loss(z, labels, confidences=conf,
                               variant="filtered", threshold=0.999).item()
    assert all_dropped == pytest.approx(0.0)
    recovered = sup_con_loss(z, labels, confidences=conf,
                             variant="filtered", threshold=0.0).item()
    unweighted = sup_con_loss(z, labels, variant="unweighted").item()
    assert recovered == pytest.approx(unweighted)


# ----------------------------------------------------------------------
# Mixup construction used throughout the theorems
# ----------------------------------------------------------------------
def test_mixup_targets_match_theorem_form():
    """m̃ = λẽ_i + (1-λ)ẽ_j with ỹ_j ≠ ỹ_i implies m̃ ∈ {(λ, 1-λ), (1-λ, λ)}."""
    rng = np.random.default_rng(8)
    labels = np.array([0, 1, 0, 1, 1, 0])
    batch = sample_mixup(labels, rng, beta=0.5, anchor_dominant=False)
    for i in range(len(labels)):
        lam = batch.lam[i]
        expected = (lam, 1 - lam) if labels[i] == 0 else (1 - lam, lam)
        np.testing.assert_allclose(batch.mixed_targets[i], expected)
