"""Label-noise processes from §III / §IV-A2 of the paper.

Two noise models are supported, matching the experimental setup:

* **uniform noise** — every ground-truth label flips with probability η;
* **class-dependent noise** — malicious labels flip with probability η₁₀
  (= P(ỹ=0 | y=1)) and normal labels flip with probability η₀₁
  (= P(ỹ=1 | y=0)).

Noise is applied to ``Session.noisy_label`` only; ground truth stays
untouched for evaluation.

:data:`NOISE_PROCESSES` names the processes the experiment grids run,
as ``kind`` plus float ``params``: it is the one place a kind's result
label (``eta=0.45``, ``eta10=0.3,eta01=0.45``) and its application are
defined.  A new grid noise process is a new entry there.
"""

from __future__ import annotations

import numpy as np

from .sessions import MALICIOUS, NORMAL, SessionDataset

__all__ = [
    "apply_uniform_noise",
    "apply_class_dependent_noise",
    "empirical_noise_rates",
    "NOISE_PROCESSES",
    "noise_label",
    "apply_noise",
]


def _validate_rate(rate: float, name: str) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


def apply_uniform_noise(dataset: SessionDataset, eta: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Flip each ground-truth label with probability ``eta``.

    Returns a boolean mask of the sessions that were flipped.
    The paper constrains η < 0.5 in experiments (§IV-A2); the function
    accepts the full range [0, 1].
    """
    _validate_rate(eta, "eta")
    flips = rng.random(len(dataset)) < eta
    noisy = dataset.labels().copy()
    noisy[flips] = 1 - noisy[flips]
    dataset.set_noisy_labels(noisy)
    return flips


def apply_class_dependent_noise(dataset: SessionDataset, eta_10: float,
                                eta_01: float,
                                rng: np.random.Generator) -> np.ndarray:
    """Flip malicious labels w.p. ``eta_10`` and normal ones w.p. ``eta_01``."""
    _validate_rate(eta_10, "eta_10")
    _validate_rate(eta_01, "eta_01")
    truth = dataset.labels()
    draws = rng.random(len(dataset))
    flips = np.where(truth == MALICIOUS, draws < eta_10, draws < eta_01)
    noisy = truth.copy()
    noisy[flips] = 1 - noisy[flips]
    dataset.set_noisy_labels(noisy)
    return flips


def empirical_noise_rates(dataset: SessionDataset) -> dict[str, float]:
    """Measure realised noise rates against ground truth.

    Returns ``eta`` (overall flip fraction), ``eta_10`` and ``eta_01``.
    Useful for verifying a noise injection and for tests.
    """
    truth = dataset.labels()
    noisy = dataset.noisy_labels()
    flipped = truth != noisy
    malicious = truth == MALICIOUS
    normal = truth == NORMAL
    return {
        "eta": float(flipped.mean()) if len(dataset) else 0.0,
        "eta_10": float(flipped[malicious].mean()) if malicious.any() else 0.0,
        "eta_01": float(flipped[normal].mean()) if normal.any() else 0.0,
    }


#: kind -> (result label template over the float params,
#:          process(dataset, *params, rng)).
NOISE_PROCESSES = {
    "uniform": ("eta={}", apply_uniform_noise),
    "class-dependent": ("eta10={},eta01={}", apply_class_dependent_noise),
    "none": ("clean", lambda dataset, rng: None),
}


def _process(kind: str):
    try:
        return NOISE_PROCESSES[kind]
    except KeyError:
        raise ValueError(f"unknown noise kind {kind!r}; choose from "
                         f"{sorted(NOISE_PROCESSES)}") from None


def noise_label(kind: str, params=()) -> str:
    """The label results of this noise process are keyed by."""
    return _process(kind)[0].format(*(float(p) for p in params))


def apply_noise(dataset: SessionDataset, kind: str, params,
                rng: np.random.Generator) -> None:
    """Apply the ``kind`` process with ``params`` to ``dataset``."""
    _process(kind)[1](dataset, *params, rng)
