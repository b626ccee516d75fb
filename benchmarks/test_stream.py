"""Streaming ingestion benchmark: sustained events/sec windower → engine.

A sustained ingestion floor for the streaming tier: events flow
through incremental session assembly and every closed window's
sessions are scored through the micro-batched engine.  The floor is
deliberately far below what CI-class hosts measure (typically tens of
thousands of events/sec) — it is a regression tripwire for the
windower and for batch-1 scoring, not a headline number.  It drives
``SessionWindower`` and ``InferenceEngine`` directly, so it does *not*
cover ``StreamProcessor``: drift monitoring, journaling, checkpoint
commits and re-correction are outside it.  The ``stream`` workload of
``python -m bench`` measures the full processor path.
``benchmarks/results/latest.txt`` records what was measured.

Marked ``smoke``: trains a deliberately tiny CLFD so the whole bench is
seconds, and uses only the ``report`` fixture (the CI stream job does
not install pytest-benchmark).
"""

import time

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.data import Word2VecConfig, apply_uniform_noise, make_dataset
from repro.serve import InferenceEngine, ServeConfig
from repro.stream import SessionWindower, synthesize_drifting_events

EVENTS_FLOOR = 500.0  # events/sec; measured throughput is ~50-100x this


@pytest.fixture(scope="module")
def stream_setup():
    rng = np.random.default_rng(23)
    train, _ = make_dataset("cert", rng, scale=0.02)
    apply_uniform_noise(train, eta=0.2, rng=rng)
    config = CLFDConfig(
        embedding_dim=12, hidden_size=16, batch_size=32, aux_batch_size=8,
        ssl_epochs=1, supcon_epochs=2, classifier_epochs=20,
        word2vec=Word2VecConfig(dim=12, epochs=1),
    )
    model = CLFD(config).fit(train, rng=np.random.default_rng(0))
    events = synthesize_drifting_events(
        "cert", n_sessions=400, drift="none", spacing=2.0,
        max_session_length=16, rng=7)
    return model, events


@pytest.mark.smoke
def test_stream_ingestion_throughput(stream_setup, report):
    model, events = stream_setup
    windower = SessionWindower(window_size=40.0, session_gap=4.0,
                               max_session_len=16)
    windows = sessions = 0
    with InferenceEngine(model, ServeConfig(verbose=False)) as engine:
        start = time.perf_counter()
        for event in events:
            for window in windower.process(event):
                windows += 1
                sessions += len(window.sessions)
                if window.sessions:
                    engine.score_many(
                        [{"activities": list(s.activities)}
                         for s in window.sessions])
        for window in windower.flush():
            windows += 1
            sessions += len(window.sessions)
            if window.sessions:
                engine.score_many(
                    [{"activities": list(s.activities)}
                     for s in window.sessions])
        elapsed = time.perf_counter() - start

    events_per_sec = len(events) / elapsed
    report()
    report(f"Stream ingestion ({len(events)} events, {sessions} sessions "
           f"across {windows} windows):")
    report(f"  windower -> engine     {events_per_sec:8.0f} events/s  "
           f"({sessions / elapsed:.0f} sessions/s)")
    assert windows > 0 and sessions > 0
    assert events_per_sec >= EVENTS_FLOOR, (
        f"stream ingestion at {events_per_sec:.0f} events/s is below "
        f"the {EVENTS_FLOOR:.0f}/s acceptance floor")
