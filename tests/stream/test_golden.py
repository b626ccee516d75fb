"""Golden outputs of the windower and the drift monitor.

Both are pure functions of their inputs and use no BLAS call (the
monitor is fed no embeddings, so no norm is taken), so the values below
hold on any NumPy build:

* the session ids of every window the :class:`SessionWindower` emits
  for the synthesized ``archetype+noise`` CERT stream at seed 11, with
  the window settings ``repro stream`` uses by default;
* the :class:`DriftReading` of every window for seeded synthetic
  scores, rounded to 6 digits as the window journal rounds them.
  The scores stay flat through the reference windows, creep upward
  window by window, then jump; a small window and a re-arm
  (:meth:`DriftMonitor.reset`, as after a re-correction) are included.

``python tests/stream/test_golden.py`` prints the current values.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.stream import DriftMonitor, DriftReading, SessionWindower, \
    synthesize_drifting_events

WINDOW_IDS_SHA256 = (
    "e6edaab511ba59f16f19b12e937cf59b42264ac6a5a7f2cc2e0ff9d76299d515")
WINDOW_SIZES = [15, 21, 20, 19, 21, 20, 20, 19, 20, 21, 19, 20, 5]
FIRST_WINDOW_IDS = [
    "s00000/0", "s00001/0", "s00002/0", "s00003/0", "s00004/0", "s00005/0",
    "s00006/0", "s00007/0", "s00008/0", "s00009/0", "s00011/0", "s00010/0",
    "s00012/0", "s00014/0", "s00013/0",
]

# One row per window, in DriftReading field order.
READINGS = [
    (0, 48, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (1, 48, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (2, 48, True, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (3, 48, True, 0.173611, 0.0, 0.0, 0.02, 0.0, 0.385802, False, ""),
    (4, 48, True, 0.215278, 0.0, 0.0, 0.0, 0.0, 0.478395, False, ""),
    (5, 48, True, 0.368056, 0.041631, 0.0, 0.0, 0.0, 0.817901, False, ""),
    (6, 48, True, 0.416667, 0.098062, 0.0, 0.01, 2.309401, 0.925926, False, ""),
    (7, 48, True, 0.555556, 0.194676, 0.0, 0.02, 2.309401, 1.234568, True, "ks"),
    (8, 48, True, 0.618056, 0.31641, 0.0, 0.0, 2.309401, 1.373457, True, "ks"),
    (9, 5, True, 0.793056, 0.465298, 0.0, 0.0, 0.745356, 1.762346, False, ""),
    (10, 48, True, 0.805556, 0.651143, 0.0, 0.01, 2.309401, 1.790123, True, "ks"),
    (11, 48, True, 0.958333, 0.858762, 0.0, 0.02, 2.309401, 2.12963, True, "ks"),
    (12, 48, True, 1.0, 1.305969, 0.0, 0.0, 2.309401, 2.611938, True, "ph"),
    (13, 48, True, 1.0, 1.740415, 0.0, 0.0, 2.309401, 3.48083, True, "ph"),
    (14, 48, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (15, 48, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (16, 48, True, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, False, ""),
    (17, 48, True, 0.125, 0.0, 0.0, 0.0, 0.0, 0.277778, False, ""),
]


def window_session_ids() -> list[list[str]]:
    events = synthesize_drifting_events(
        "cert", n_sessions=240, drift="archetype+noise", eta=0.1,
        eta_after=0.45, malicious_rate=0.1, malicious_rate_after=0.45,
        max_session_length=16, rng=11)
    windower = SessionWindower(window_size=60.0, session_gap=4.0,
                               max_session_len=16)
    windows = []
    for event in events:
        windows.extend(windower.process(event))
    windows.extend(windower.flush())
    assert [w.index for w in windows] == list(range(len(windows)))
    return [[s.session_id for s in w.sessions] for w in windows]


def drift_readings() -> list[dict]:
    rng = np.random.default_rng(5)
    monitor = DriftMonitor()
    readings = []
    for window in range(18):
        n = 5 if window == 9 else 48
        shift = 0.0 if window < 3 else 0.03 * (window - 2)
        if window >= 12:
            shift = 0.5
        scores = np.clip(rng.uniform(0.1, 0.4, size=n) + shift, 0.0, 1.0)
        noisy_rate = 0.1 if window < 6 else 0.2
        reading = monitor.observe(window, scores,
                                  oov_rate=0.01 * (window % 4),
                                  noisy_rate=noisy_rate)
        readings.append({k: round(v, 6) if isinstance(v, float) else v
                         for k, v in reading.to_dict().items()})
        if window == 13:
            monitor.reset()
    return readings


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def test_window_session_ids():
    ids = window_session_ids()
    assert [len(w) for w in ids] == WINDOW_SIZES
    assert ids[0] == FIRST_WINDOW_IDS
    assert _sha256(ids) == WINDOW_IDS_SHA256


def test_drift_readings():
    readings = drift_readings()
    assert list(readings[0]) == list(DriftReading.__dataclass_fields__)
    assert [tuple(r.values()) for r in readings] == READINGS


if __name__ == "__main__":
    ids = window_session_ids()
    print("WINDOW_IDS_SHA256 =", _sha256(ids))
    print("WINDOW_SIZES =", [len(w) for w in ids])
    print("FIRST_WINDOW_IDS =", ids[0])
    print("READINGS = [")
    for reading in drift_readings():
        print(f"    {tuple(reading.values())!r},")
    print("]")
