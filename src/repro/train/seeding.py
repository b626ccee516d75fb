"""Deterministic seeding and RNG-state capture for resumable training.

Two complementary facilities:

* :func:`seed_everything` — one call that seeds every RNG a training
  run can draw from (Python's ``random``, NumPy's legacy global state,
  and a fresh ``numpy.random.Generator`` returned for explicit use).
  The returned generator is ``np.random.default_rng(seed)``, so call
  sites that previously built one ad hoc are bit-identical after
  migrating.
* :func:`generator_state` / :func:`set_generator_state` — exact
  capture/restore of a ``Generator``'s state.  The snapshot is
  JSON-serialisable (Python ints are arbitrary precision, which covers
  PCG64's 128-bit state), so RNG state rides along inside checkpoint
  metadata and a resumed run consumes the *identical* random stream an
  uninterrupted run would have.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = [
    "seed_everything",
    "generator_state",
    "set_generator_state",
]


def seed_everything(seed: int) -> np.random.Generator:
    """Seed all global RNGs and return a fresh seeded Generator.

    Seeds ``random`` and NumPy's legacy global state (anything still
    drawing from ``np.random.<fn>`` becomes deterministic too) and
    returns ``np.random.default_rng(seed)`` — the stream every training
    entry point in this repo derives its randomness from.
    """
    seed = int(seed)
    random.seed(seed)
    np.random.seed(seed % 2 ** 32)
    return np.random.default_rng(seed)


def generator_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a ``Generator``'s exact position."""
    return rng.bit_generator.state


def set_generator_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a snapshot taken by :func:`generator_state` in place."""
    rng.bit_generator.state = state
