"""DriftMonitor: each statistic, the alarm policy, and state round-trips."""

import json

import numpy as np

from repro.stream import DriftMonitor, ks_statistic
from repro.stream.drift import MIN_SESSIONS, REFERENCE_WINDOWS

N = 64


def _ref_scores(rng, size=N):
    return rng.uniform(0.1, 0.4, size=size)


def _feed_reference(monitor, rng, *, embeddings=None, oov_rate=0.0,
                    noisy_rate=0.1, size=N):
    for i in range(REFERENCE_WINDOWS):
        reading = monitor.observe(i, _ref_scores(rng, size), embeddings,
                                  oov_rate, noisy_rate=noisy_rate)
        assert not reading.alarm
    assert monitor.frozen
    return REFERENCE_WINDOWS


def test_ks_statistic_bounds():
    rng = np.random.default_rng(0)
    same = rng.uniform(size=100)
    assert ks_statistic(same, same) == 0.0
    assert ks_statistic(np.zeros(10), np.ones(10)) == 1.0
    assert ks_statistic(np.array([]), same) == 0.0
    shifted = ks_statistic(rng.uniform(size=200),
                           rng.uniform(size=200) + 0.5)
    assert 0.4 < shifted <= 1.0


def test_reference_phase_never_alarms():
    monitor = DriftMonitor()
    rng = np.random.default_rng(1)
    readings = [monitor.observe(i, _ref_scores(rng), noisy_rate=0.1)
                for i in range(REFERENCE_WINDOWS)]
    assert [r.reference_frozen for r in readings] == [False, False, True]
    assert all(r.drift_score == 0.0 for r in readings)
    assert monitor.alarms == 0


def test_stationary_windows_stay_silent():
    monitor = DriftMonitor()
    rng = np.random.default_rng(2)
    window = _feed_reference(monitor, rng)
    for i in range(10):
        reading = monitor.observe(window + i, _ref_scores(rng),
                                  noisy_rate=0.1)
        assert not reading.alarm, reading
    assert monitor.alarms == 0


def test_score_distribution_shift_triggers_ks():
    monitor = DriftMonitor()
    rng = np.random.default_rng(3)
    window = _feed_reference(monitor, rng)
    reading = monitor.observe(window, rng.uniform(0.7, 0.95, size=N),
                              noisy_rate=0.1)
    assert reading.alarm
    assert reading.trigger == "ks"
    assert monitor.alarms == 1


def test_slow_mean_creep_triggers_page_hinkley():
    # A +0.08 shift of 256-session windows keeps the KS statistic near
    # 0.27, well under its threshold, but each window adds 0.03 to the
    # Page–Hinkley sum until it passes the PH level.
    monitor = DriftMonitor()
    rng = np.random.default_rng(4)
    window = _feed_reference(monitor, rng, size=256)
    readings = []
    for i in range(30):
        readings.append(monitor.observe(
            window + i, _ref_scores(rng, 256) + 0.08, noisy_rate=0.1))
        if readings[-1].alarm:
            break
    assert len(readings) > 10
    assert max(r.ks for r in readings) < 0.4
    assert readings[-1].alarm
    assert readings[-1].trigger == "ph"


def test_embedding_centroid_shift_triggers_centroid():
    monitor = DriftMonitor()
    rng = np.random.default_rng(5)
    ref_emb = rng.normal(loc=1.0, scale=0.01, size=(N, 4))
    window = _feed_reference(monitor, rng, embeddings=ref_emb)
    reading = monitor.observe(window, _ref_scores(rng),
                              ref_emb + 2.0, noisy_rate=0.1)
    assert reading.alarm
    assert reading.trigger == "centroid"


def test_oov_rate_jump_triggers_oov():
    monitor = DriftMonitor()
    rng = np.random.default_rng(6)
    window = _feed_reference(monitor, rng, oov_rate=0.01)
    reading = monitor.observe(window, _ref_scores(rng),
                              oov_rate=0.5, noisy_rate=0.1)
    assert reading.alarm
    assert reading.trigger == "oov"


def test_label_prevalence_shift_triggers_label_z():
    # Label-noise drift is invisible to score/embedding statistics (the
    # model never sees labels); the binomial-z prevalence test is the
    # signal that covers it.
    monitor = DriftMonitor()
    rng = np.random.default_rng(7)
    window = _feed_reference(monitor, rng, noisy_rate=0.1)
    reading = monitor.observe(window, _ref_scores(rng), noisy_rate=0.5)
    assert reading.alarm
    assert reading.trigger == "label"


def test_small_windows_never_alarm():
    monitor = DriftMonitor()
    rng = np.random.default_rng(8)
    window = _feed_reference(monitor, rng)
    reading = monitor.observe(window, np.full(MIN_SESSIONS - 1, 0.95),
                              noisy_rate=0.1)
    assert reading.drift_score >= 1.0
    assert not reading.alarm
    assert monitor.alarms == 0


def test_reset_rearms_but_keeps_counters():
    monitor = DriftMonitor()
    rng = np.random.default_rng(9)
    window = _feed_reference(monitor, rng)
    assert monitor.observe(window, np.full(N, 0.95),
                           noisy_rate=0.1).alarm
    monitor.reset()
    assert not monitor.frozen
    assert monitor.alarms == 1
    # The same extreme window is now reference material, not an alarm.
    assert not monitor.observe(window + 1, np.full(N, 0.95),
                               noisy_rate=0.1).alarm


def test_state_round_trip_reproduces_readings():
    rng_a = np.random.default_rng(10)
    rng_b = np.random.default_rng(10)
    a = DriftMonitor()
    b = DriftMonitor()
    window = _feed_reference(a, rng_a)
    _feed_reference(b, rng_b)
    a.observe(window, _ref_scores(rng_a) + 0.08, noisy_rate=0.15)
    b.observe(window, _ref_scores(rng_b) + 0.08, noisy_rate=0.15)

    state = a.state_dict()
    # Each reference value once: the pooled scores and the reference
    # mean, centroid, oov rate and prevalence are rebuilt on load.
    assert set(state) == {"ref_scores", "ref_centroids", "ref_oov",
                          "ref_label", "ph_pos", "ph_neg", "alarms"}
    restored = DriftMonitor()
    restored.load_state_dict(json.loads(json.dumps(state)))
    probe = np.random.default_rng(11).uniform(0.2, 0.9, size=N)
    assert (restored.observe(window + 1, probe, noisy_rate=0.3)
            == b.observe(window + 1, probe, noisy_rate=0.3))
    assert restored.alarms == b.alarms

