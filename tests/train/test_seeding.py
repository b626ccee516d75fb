"""Tests for repro.train.seeding: global seeding + exact RNG capture."""

import random

import numpy as np

from repro.data import make_dataset
from repro.train import generator_state, seed_everything, set_generator_state


def test_seed_everything_matches_default_rng():
    """Migration contract: same stream as ad-hoc default_rng(seed)."""
    rng = seed_everything(123)
    expected = np.random.default_rng(123)
    assert np.array_equal(rng.random(16), expected.random(16))


def test_seed_everything_seeds_global_rngs():
    seed_everything(7)
    a_py, a_np = random.random(), np.random.random(4)
    seed_everything(7)
    assert random.random() == a_py
    assert np.array_equal(np.random.random(4), a_np)


def test_seed_everything_accepts_large_seeds():
    # The legacy numpy seed is 32-bit; seed_everything must not choke
    # on a 64-bit seed.
    rng = seed_everything(2 ** 40 + 17)
    assert isinstance(rng, np.random.Generator)


def test_generator_state_roundtrip_is_exact():
    rng = np.random.default_rng(5)
    rng.random(7)  # advance mid-stream
    state = generator_state(rng)
    ahead = rng.random(32)
    set_generator_state(rng, state)
    assert np.array_equal(rng.random(32), ahead)


def test_generator_state_is_json_serialisable():
    import json

    state = generator_state(np.random.default_rng(3))
    rebuilt = json.loads(json.dumps(state))
    rng = np.random.default_rng(0)
    set_generator_state(rng, rebuilt)
    expected = np.random.default_rng(3)
    assert np.array_equal(rng.random(8), expected.random(8))


def test_make_dataset_accepts_int_seed():
    by_seed = make_dataset("cert", 42, scale=0.02)
    by_rng = make_dataset("cert", seed_everything(42), scale=0.02)
    for a, b in zip(by_seed, by_rng):
        assert [s.session_id for s in a] == [s.session_id for s in b]
        assert np.array_equal(a.labels(), b.labels())
