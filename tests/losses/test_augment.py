"""Tests for session reordering and mixup augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.augment import reorder_ids, sample_mixup


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ----------------------------------------------------------------------
# Session reordering
# ----------------------------------------------------------------------
def test_reorder_preserves_multiset(rng):
    ids = np.arange(1, 11)
    out = reorder_ids(ids, rng)
    assert sorted(out) == sorted(ids)


def test_reorder_changes_at_most_window(rng):
    ids = np.arange(1, 11)
    out = reorder_ids(ids, rng, sub_len=3)
    changed = np.flatnonzero(out != ids)
    if changed.size:
        assert changed.max() - changed.min() < 3


def test_reorder_respects_length_mask(rng):
    """Padding positions beyond `length` must never move."""
    ids = np.array([5, 6, 7, 0, 0, 0])
    for _ in range(20):
        out = reorder_ids(ids, rng, length=3)
        np.testing.assert_array_equal(out[3:], [0, 0, 0])
        assert sorted(out[:3]) == [5, 6, 7]


def test_reorder_short_sequences(rng):
    np.testing.assert_array_equal(reorder_ids(np.array([4]), rng), [4])
    out = reorder_ids(np.array([1, 2]), rng)
    assert sorted(out) == [1, 2]


def test_reorder_rejects_sub_len_one(rng):
    with pytest.raises(ValueError):
        reorder_ids(np.arange(5), rng, sub_len=1)


def test_reorder_eventually_produces_change(rng):
    ids = np.arange(1, 9)
    assert any(not np.array_equal(reorder_ids(ids, rng), ids)
               for _ in range(50))


# ----------------------------------------------------------------------
# Mixup
# ----------------------------------------------------------------------
def test_mixup_partners_come_from_opposite_class(rng):
    labels = np.array([0, 0, 1, 1, 0, 1])
    batch = sample_mixup(labels, rng)
    for i, j in enumerate(batch.partner):
        assert labels[i] != labels[j]


def test_mixup_single_class_falls_back(rng):
    labels = np.zeros(4, dtype=int)
    batch = sample_mixup(labels, rng)
    assert set(batch.partner) <= {0, 1, 2, 3}


def test_mixup_targets_interpolate(rng):
    labels = np.array([0, 1])
    batch = sample_mixup(labels, rng, beta=16.0)
    lam = batch.lam
    np.testing.assert_allclose(batch.mixed_targets[0],
                               [lam[0], 1.0 - lam[0]])
    np.testing.assert_allclose(batch.mixed_targets[1],
                               [1.0 - lam[1], lam[1]])


def test_mixup_targets_are_distributions(rng):
    labels = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    batch = sample_mixup(labels, rng)
    np.testing.assert_allclose(batch.mixed_targets.sum(axis=1), 1.0)
    assert (batch.mixed_targets >= 0).all()


def test_mixup_beta16_concentrates_near_half(rng):
    labels = np.tile([0, 1], 500)
    batch = sample_mixup(labels, rng, beta=16.0, anchor_dominant=False)
    assert abs(batch.lam.mean() - 0.5) < 0.02
    assert batch.lam.std() < 0.15


def test_mixup_anchor_dominant_keeps_majority_weight(rng):
    """Default λ' = max(λ, 1-λ): anchors keep >= half the weight, so the
    mixed targets' class prior follows the data (not 50/50)."""
    labels = np.array([0] * 90 + [1] * 10)
    batch = sample_mixup(labels, rng, beta=0.3)
    assert (batch.lam >= 0.5).all()
    malicious_mass = batch.mixed_targets[:, 1].mean()
    assert malicious_mass < 0.4  # prior ~0.1 stays nearer 0.1 than 0.5


def test_mixup_validation(rng):
    with pytest.raises(ValueError):
        sample_mixup(np.array([0, 1]), rng, beta=0.0)
    with pytest.raises(ValueError):
        sample_mixup(np.array([0]), rng)


def _sample_mixup_before(labels, rng, beta=0.3, num_classes=2,
                         anchor_dominant=True):
    """``sample_mixup`` as it was before it dropped the ``np.unique``
    sort: the reference its draws must keep matching."""
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    partner = np.empty(n, dtype=np.int64)
    for cls in np.unique(labels):
        rows = np.flatnonzero(labels == cls)
        opposite = np.flatnonzero(labels != cls)
        pool = opposite if opposite.size else np.flatnonzero(labels == cls)
        partner[rows] = rng.choice(pool, size=rows.size)
    lam = rng.beta(beta, beta, size=n)
    if anchor_dominant:
        lam = np.maximum(lam, 1.0 - lam)
    targets = np.eye(num_classes)[labels]
    mixed = lam[:, None] * targets + (1.0 - lam)[:, None] * targets[partner]
    return partner, lam, mixed


@pytest.mark.parametrize("num_classes", [2, 3])
def test_mixup_draws_match_the_unique_based_sampler(num_classes):
    """Same rng draws in the same order: partners, λ and mixed targets
    stay bitwise equal, single-class batches included, and the rng is
    left in the same state."""
    for seed in range(300):
        pick = np.random.default_rng([seed, num_classes])
        n = int(pick.integers(2, 70))
        if seed % 5 == 0:                      # single-class batch
            labels = np.full(n, pick.integers(num_classes))
        else:
            labels = pick.integers(0, num_classes, size=n)
        beta = float(pick.choice([0.3, 1.0, 16.0]))
        anchor = bool(seed % 3)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        got = sample_mixup(labels, rng_new, beta=beta,
                           num_classes=num_classes, anchor_dominant=anchor)
        partner, lam, mixed = _sample_mixup_before(
            labels, rng_old, beta=beta, num_classes=num_classes,
            anchor_dominant=anchor)
        assert got.partner.tobytes() == partner.tobytes(), seed
        assert got.lam.tobytes() == lam.tobytes(), seed
        assert got.mixed_targets.tobytes() == mixed.tobytes(), seed
        assert rng_new.random() == rng_old.random(), seed


def test_mixup_rejects_labels_outside_the_classes(rng):
    with pytest.raises(ValueError, match="labels must lie"):
        sample_mixup(np.array([0, 1, 2]), rng)
    with pytest.raises(ValueError, match="labels must lie"):
        sample_mixup(np.array([0, -1, 1]), rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       beta=st.floats(min_value=0.1, max_value=32.0))
def test_mixup_lambda_in_unit_interval(seed, beta):
    labels = np.array([0, 1, 1, 0, 1])
    batch = sample_mixup(labels, np.random.default_rng(seed), beta=beta)
    assert ((batch.lam >= 0) & (batch.lam <= 1)).all()
