"""Tests for label-noise injection, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    MALICIOUS,
    NORMAL,
    Session,
    SessionDataset,
    Vocabulary,
    apply_class_dependent_noise,
    apply_uniform_noise,
    empirical_noise_rates,
)


def _dataset(n_normal=200, n_malicious=100):
    vocab = Vocabulary(["a"])
    sessions = [Session([1], NORMAL) for _ in range(n_normal)]
    sessions += [Session([1], MALICIOUS) for _ in range(n_malicious)]
    return SessionDataset(sessions, vocab)


def test_uniform_noise_zero_is_identity():
    ds = _dataset()
    flips = apply_uniform_noise(ds, 0.0, np.random.default_rng(0))
    assert not flips.any()
    np.testing.assert_array_equal(ds.labels(), ds.noisy_labels())


def test_uniform_noise_rate_close_to_eta():
    ds = _dataset(2000, 1000)
    apply_uniform_noise(ds, 0.3, np.random.default_rng(0))
    rates = empirical_noise_rates(ds)
    assert rates["eta"] == pytest.approx(0.3, abs=0.03)


def test_uniform_noise_flips_ground_truth_kept():
    ds = _dataset()
    apply_uniform_noise(ds, 0.45, np.random.default_rng(1))
    assert (ds.labels() != ds.noisy_labels()).any()
    assert ds.class_counts() == (200, 100)  # ground truth untouched


def test_class_dependent_rates():
    ds = _dataset(4000, 2000)
    apply_class_dependent_noise(ds, eta_10=0.3, eta_01=0.45,
                                rng=np.random.default_rng(2))
    rates = empirical_noise_rates(ds)
    assert rates["eta_10"] == pytest.approx(0.3, abs=0.04)
    assert rates["eta_01"] == pytest.approx(0.45, abs=0.04)


def test_rate_validation():
    ds = _dataset(10, 10)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_uniform_noise(ds, -0.1, rng)
    with pytest.raises(ValueError):
        apply_class_dependent_noise(ds, 1.2, 0.1, rng)
    with pytest.raises(ValueError):
        apply_class_dependent_noise(ds, 0.1, -0.5, rng)


def test_noise_is_deterministic_per_seed():
    a, b = _dataset(), _dataset()
    apply_uniform_noise(a, 0.3, np.random.default_rng(9))
    apply_uniform_noise(b, 0.3, np.random.default_rng(9))
    np.testing.assert_array_equal(a.noisy_labels(), b.noisy_labels())


@settings(max_examples=25, deadline=None)
@given(eta=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_uniform_noise_flip_mask_consistent(eta, seed):
    """Property: the returned mask exactly describes label disagreement."""
    ds = _dataset(30, 20)
    flips = apply_uniform_noise(ds, eta, np.random.default_rng(seed))
    np.testing.assert_array_equal(flips, ds.labels() != ds.noisy_labels())


@settings(max_examples=25, deadline=None)
@given(eta10=st.floats(min_value=0.0, max_value=1.0),
       eta01=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=10_000))
def test_class_noise_only_flips_described_class(eta10, eta01, seed):
    """Property: with eta01=0 no normal flips; with eta10=0 no malicious."""
    ds = _dataset(30, 20)
    apply_class_dependent_noise(ds, eta10, 0.0, np.random.default_rng(seed))
    rates = empirical_noise_rates(ds)
    assert rates["eta_01"] == 0.0
    ds2 = _dataset(30, 20)
    apply_class_dependent_noise(ds2, 0.0, eta01, np.random.default_rng(seed))
    assert empirical_noise_rates(ds2)["eta_10"] == 0.0

