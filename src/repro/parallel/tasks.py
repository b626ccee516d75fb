"""Self-describing grid tasks and their content-addressed cache keys.

A :class:`TaskSpec` captures everything needed to reproduce one cell of
an experiment table — estimator kind + full configuration, dataset,
noise process, seed, scale, and what to measure — as plain picklable
data.  Workers reconstruct the cell from the spec alone, so a spec can
cross a process boundary, be hashed into an on-disk cache key, or be
re-run years later with identical results (all randomness derives from
``spec.seed`` through deterministic generator streams).

The cache key is a SHA-256 over the canonical JSON of the spec plus a
format version: any change to the estimator configuration, noise
parameters, seed, scale, or measured quantity produces a different key,
while the display name (``model``) is presentation-only and excluded —
e.g. the "CLFD" row of Table IV shares cells with Table I.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

from ..data.noise import NOISE_PROCESSES, apply_noise, noise_label
from ..data.sessions import SessionDataset

__all__ = ["TaskSpec", "task_key", "CACHE_FORMAT"]

# Bump when the execution semantics change in a way that invalidates
# previously cached records (new measure definitions, changed rng
# derivation, ...).
CACHE_FORMAT = 1

_MEASURES = ("test_metrics", "correction_rates")


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One grid cell: train ``estimator`` on a noisy split, measure it.

    Parameters
    ----------
    model: display name for reports (a Table I model or an ablation
        row); not part of the cache key.
    estimator: ``"clfd"`` or a key of :data:`repro.baselines.BASELINES`.
    config: the estimator's full configuration dataclass
        (:class:`~repro.core.CLFDConfig` / ``BaselineConfig``); carried
        whole so workers need no side channel and the cache key covers
        every hyper-parameter.
    dataset: benchmark name for :func:`repro.data.make_dataset`.
    noise_kind / noise_params: serialisable noise process, a kind of
        :data:`repro.data.noise.NOISE_PROCESSES` — ``("uniform",
        (eta,))``, ``("class-dependent", (eta10, eta01))`` or
        ``("none", ())``.
    seed: the cell's deterministic seed; the split generator, the noise
        draw and the training rng all derive from it, so the tuple
        ``(estimator, config, dataset, noise, seed, scale)`` fully
        determines the result.
    measure: ``"test_metrics"`` (Tables I/II/IV/V) or
        ``"correction_rates"`` (Table III TPR/TNR on the noisy train
        set; CLFD only).
    failpoint: fault-injection hook for tests — ``"raise"`` always
        fails, ``"flaky:N"`` fails the first N attempts, ``"crash"``
        kills the worker process outright.  ``None`` in real sweeps.
    """

    model: str
    estimator: str
    config: Any
    dataset: str
    noise_kind: str
    noise_params: tuple[float, ...]
    seed: int
    scale: float
    measure: str = "test_metrics"
    failpoint: str | None = None

    def __post_init__(self):
        if self.noise_kind not in NOISE_PROCESSES:
            raise ValueError(f"noise_kind must be one of "
                             f"{tuple(NOISE_PROCESSES)}, "
                             f"got {self.noise_kind!r}")
        if self.measure not in _MEASURES:
            raise ValueError(f"measure must be one of {_MEASURES}, "
                             f"got {self.measure!r}")
        if self.measure == "correction_rates" and self.estimator != "clfd":
            raise ValueError("correction_rates is only defined for the "
                             "CLFD label corrector")
        object.__setattr__(self, "noise_params",
                           tuple(float(p) for p in self.noise_params))

    # ------------------------------------------------------------------
    @property
    def noise_label(self) -> str:
        return noise_label(self.noise_kind, self.noise_params)

    def apply_noise(self, dataset: SessionDataset,
                    rng: np.random.Generator) -> None:
        apply_noise(dataset, self.noise_kind, self.noise_params, rng)

    def describe(self) -> str:
        """One-line cell description for progress output."""
        return (f"{self.model} {self.dataset} {self.noise_label} "
                f"seed{self.seed}")


def task_key(spec: TaskSpec) -> str:
    """Stable content hash of a spec (plus format fingerprint)."""
    config = dataclasses.asdict(spec.config)
    # A config's retired fields still feed the key, so caches written
    # before their removal keep hitting.
    config.update(getattr(spec.config, "RETIRED_FIELDS", {}))
    payload = {
        "format": CACHE_FORMAT,
        "estimator": spec.estimator,
        "config_type": type(spec.config).__name__,
        "config": config,
        "dataset": spec.dataset,
        "noise": [spec.noise_kind, list(spec.noise_params)],
        "seed": int(spec.seed),
        "scale": float(spec.scale),
        "measure": spec.measure,
        "failpoint": spec.failpoint,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]
