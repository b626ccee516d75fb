"""Concept-drift detection over per-window streaming statistics.

:class:`DriftMonitor` watches three signals per emitted window, each a
cheap scalar/vector summary of what the serving tier already computes:

* the **score distribution** — fraud probabilities of the window's
  sessions, compared against a frozen reference window with a
  two-sample Kolmogorov–Smirnov statistic *and* a two-sided
  Page–Hinkley (cumulative-sum) test on the window means;
* the **embedding centroid** — mean embedding of the window's sessions,
  as relative distance from the reference centroid (covers drift that
  moves representations without moving calibrated scores);
* the **novel-token rate** — per-window ``oov_rate`` from the serving
  layer's OOV counts (covers lexical drift: activities the frozen
  vocabulary has never seen);
* the **annotation prevalence** — the window's noisy-positive rate as
  a binomial z-deviation from the reference rate.  This is the only
  signal that can see *label-noise-rate* drift: flipping more labels
  changes nothing about the sessions the model scores, but it directly
  moves the observed positive rate.

The first :data:`REFERENCE_WINDOWS` windows freeze the reference;
after that each window yields a :class:`DriftReading` whose
``drift_score`` is the worst statistic normalised by its threshold
(``>= 1`` ⇒ alarm).  The thresholds are the module constants below.
Page–Hinkley keeps per-direction cumulative sums so slow monotone
shifts accumulate; KS fires on distribution-shape changes a mean test
misses.  Everything is numpy + stdlib — no scipy — and the monitor
state round-trips through :meth:`state_dict` as JSON, so a resumed
stream reproduces the exact same alarm sequence.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["ks_statistic", "DriftReading", "DriftMonitor"]

# Initial windows pooled into the frozen reference (scores, centroid,
# oov rate, annotation prevalence).
REFERENCE_WINDOWS = 3
# Alarm when the KS statistic vs the reference scores exceeds this.
KS_THRESHOLD = 0.45
# Page–Hinkley slack and alarm level for the two-sided cumulative
# deviation of window means from the reference mean, in score units.
PH_DELTA = 0.05
PH_THRESHOLD = 0.5
# Alarm on relative centroid displacement |c_w - c_ref| / (|c_ref| + eps).
CENTROID_THRESHOLD = 0.5
# Alarm on an absolute rise of the window OOV rate over the reference's.
OOV_THRESHOLD = 0.10
# Alarm when the window noisy-positive rate deviates from the reference
# rate by this many binomial standard errors (two-sided).
LABEL_Z_THRESHOLD = 3.0
# Windows smaller than this are journaled but never alarm (KS on 3
# sessions is noise).
MIN_SESSIONS = 8


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic, ``sup |F_a - F_b|``.

    Plain numpy (no scipy in the container): evaluate both empirical
    CDFs on the pooled sample via ``searchsorted``.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return 0.0
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclasses.dataclass(frozen=True)
class DriftReading:
    """Per-window drift verdict with the statistics behind it."""

    window: int
    n_sessions: int
    reference_frozen: bool
    ks: float
    ph: float
    centroid_dist: float
    oov_delta: float
    label_z: float
    drift_score: float
    alarm: bool
    trigger: str  # which statistic crossed, "" when no alarm

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class DriftMonitor:
    """Two-sided drift alarm against a frozen reference window.

    The per-window reference values are the state; the pooled scores
    and the reference mean, centroid, oov rate and prevalence are
    derived from them when the reference freezes (and again when a
    frozen state is loaded).
    """

    def __init__(self):
        self._alarms = 0
        self.reset()

    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """True once the reference window set is complete."""
        return len(self._ref_scores) >= REFERENCE_WINDOWS

    @property
    def alarms(self) -> int:
        return self._alarms

    # ------------------------------------------------------------------
    def observe(self, window_index: int, scores: np.ndarray,
                embeddings: np.ndarray | None = None,
                oov_rate: float = 0.0,
                noisy_rate: float | None = None) -> DriftReading:
        """Fold one window's statistics in; returns the drift verdict.

        ``scores`` are the window's per-session fraud probabilities,
        ``embeddings`` an optional ``(n, d)`` matrix of session
        embeddings, ``oov_rate`` the fraction of out-of-vocabulary
        tokens among the window's tokens, and ``noisy_rate`` the
        fraction of sessions the stream annotated positive (None when
        the stream carries no labels).
        """
        scores = np.asarray(scores, dtype=np.float64).ravel()
        centroid = None
        if embeddings is not None and len(embeddings):
            centroid = np.asarray(embeddings,
                                  dtype=np.float64).mean(axis=0)

        if not self.frozen:
            self._ref_scores.append([float(s) for s in scores])
            if centroid is not None:
                self._ref_centroids.append([float(c) for c in centroid])
            self._ref_oov.append(float(oov_rate))
            if noisy_rate is not None:
                self._ref_label.append((float(noisy_rate),
                                        int(scores.size)))
            if self.frozen:
                self._freeze()
            return DriftReading(
                window=window_index, n_sessions=int(scores.size),
                reference_frozen=self.frozen, ks=0.0, ph=0.0,
                centroid_dist=0.0, oov_delta=0.0, label_z=0.0,
                drift_score=0.0, alarm=False, trigger="")

        ks = ks_statistic(self._ref_pool, scores) if scores.size else 0.0

        if scores.size:
            deviation = float(scores.mean()) - self._ref_mean
            self._ph_pos = max(0.0, self._ph_pos + deviation - PH_DELTA)
            self._ph_neg = max(0.0, self._ph_neg - deviation - PH_DELTA)
        ph = max(self._ph_pos, self._ph_neg)

        centroid_dist = 0.0
        if centroid is not None and self._ref_centroid is not None:
            ref_c = self._ref_centroid
            centroid_dist = float(np.linalg.norm(centroid - ref_c)
                                  / (np.linalg.norm(ref_c) + 1e-12))

        oov_delta = max(0.0, float(oov_rate) - self._ref_oov_rate)

        label_z = 0.0
        if noisy_rate is not None and self._ref_label and scores.size:
            p = self._ref_label_rate
            se = np.sqrt(max(p * (1.0 - p), 1e-4) / scores.size)
            label_z = float(abs(float(noisy_rate) - p) / se)

        ratios = {
            "ks": ks / KS_THRESHOLD,
            "ph": ph / PH_THRESHOLD,
            "centroid": centroid_dist / CENTROID_THRESHOLD,
            "oov": oov_delta / OOV_THRESHOLD,
            "label": label_z / LABEL_Z_THRESHOLD,
        }
        trigger = max(ratios, key=lambda k: ratios[k])
        drift_score = ratios[trigger]
        alarm = drift_score >= 1.0 and scores.size >= MIN_SESSIONS
        if alarm:
            self._alarms += 1
        return DriftReading(
            window=window_index, n_sessions=int(scores.size),
            reference_frozen=True, ks=ks, ph=ph,
            centroid_dist=centroid_dist, oov_delta=oov_delta,
            label_z=label_z, drift_score=float(drift_score), alarm=alarm,
            trigger=trigger if alarm else "")

    def reset(self) -> None:
        """Re-arm after re-correction: next windows rebuild the reference.

        The model just changed, so the old score reference describes a
        model that no longer serves; keeping it would re-alarm forever.
        The alarm count carries on.
        """
        self._ref_scores: list[list[float]] = []
        self._ref_centroids: list[list[float]] = []
        self._ref_oov: list[float] = []
        self._ref_label: list[tuple[float, int]] = []
        self._ref_pool = np.zeros(0)
        self._ref_mean = 0.0
        self._ref_centroid: np.ndarray | None = None
        self._ref_oov_rate = 0.0
        self._ref_label_rate = 0.0
        self._ph_pos = 0.0
        self._ph_neg = 0.0

    # ------------------------------------------------------------------
    def _freeze(self) -> None:
        """Derive the pooled and summary reference values."""
        pooled = [s for window in self._ref_scores for s in window]
        self._ref_pool = np.asarray(pooled, dtype=np.float64)
        self._ref_mean = float(np.mean(pooled)) if pooled else 0.0
        if self._ref_centroids:
            self._ref_centroid = np.mean(
                np.asarray(self._ref_centroids, dtype=np.float64), axis=0)
        self._ref_oov_rate = (float(np.mean(self._ref_oov))
                              if self._ref_oov else 0.0)
        if self._ref_label:
            total = sum(n for _, n in self._ref_label)
            self._ref_label_rate = (
                sum(rate * n for rate, n in self._ref_label)
                / max(total, 1))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot: each reference value once.

        The per-window reference values, the Page–Hinkley sums and the
        alarm count; the pooled and derived values are rebuilt from
        them on load.
        """
        return {
            "ref_scores": [list(w) for w in self._ref_scores],
            "ref_centroids": [list(c) for c in self._ref_centroids],
            "ref_oov": list(self._ref_oov),
            "ref_label": [list(pair) for pair in self._ref_label],
            "ph_pos": self._ph_pos,
            "ph_neg": self._ph_neg,
            "alarms": self._alarms,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self.reset()
        self._ref_scores = [list(w) for w in state["ref_scores"]]
        self._ref_centroids = [list(c) for c in state["ref_centroids"]]
        self._ref_oov = list(state["ref_oov"])
        self._ref_label = [(float(r), int(n))
                           for r, n in state["ref_label"]]
        if self.frozen:
            self._freeze()
        self._ph_pos = float(state["ph_pos"])
        self._ph_neg = float(state["ph_neg"])
        self._alarms = int(state["alarms"])
