"""Event log semantics and the synthetic drifting stream generator."""

import numpy as np
import pytest

from repro.data.generators import DATASET_GENERATORS
from repro.stream import (
    DRIFT_MODES,
    NOVEL_ARCHETYPES,
    Event,
    EventLog,
    synthesize_drifting_events,
    write_events,
)


def _event(t, entity="u0", activity="a"):
    return Event(time=t, entity=entity, activity=activity)


def test_event_log_roundtrip_with_offsets(tmp_path):
    log = EventLog(tmp_path / "events.jsonl")
    assert log.append(_event(0.0)) == 0
    assert log.append(_event(1.0, "u1", 7)) == 1
    assert log.extend([_event(2.0), _event(3.0)]) == 4
    assert len(log) == 4

    events = list(log)
    assert [e.offset for e in events] == [0, 1, 2, 3]
    assert [e.time for e in events] == [0.0, 1.0, 2.0, 3.0]
    assert events[1].entity == "u1"
    assert events[1].activity == 7  # int ids survive the round trip


def test_event_log_read_from_offset(tmp_path):
    log = write_events(tmp_path / "events.jsonl",
                       [_event(float(t)) for t in range(5)])
    tail = list(log.read(3))
    assert [e.offset for e in tail] == [3, 4]


def test_event_log_skips_torn_trailing_line(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.append(_event(0.0))
    with open(path, "a") as fh:
        fh.write('{"time": 1.0, "entity": "u0", "act')  # crash mid-write
    assert [e.offset for e in log] == [0]


def test_append_after_torn_tail_starts_a_new_line(tmp_path):
    """Regression: an append after a torn last line (its writer was
    killed mid-write) landed on that line, so ``read()`` skipped the new
    event and the returned offset pointed at nothing."""
    path = tmp_path / "events.jsonl"
    EventLog(path).append(_event(0.0))
    with open(path, "a") as fh:
        fh.write('{"time": 1.0, "entity": "u0", "act')  # crash mid-write
    log = EventLog(path)
    assert log.append(_event(2.0)) == 1
    assert [(e.offset, e.time) for e in log] == [(0, 0.0), (1, 2.0)]


def test_synthesis_is_deterministic():
    a = synthesize_drifting_events("cert", n_sessions=30, rng=5)
    b = synthesize_drifting_events("cert", n_sessions=30, rng=5)
    c = synthesize_drifting_events("cert", n_sessions=30, rng=6)
    assert a == b
    assert a != c


def test_synthesis_orders_events_and_names_entities():
    events = synthesize_drifting_events("cert", n_sessions=40, rng=0)
    times = [e.time for e in events]
    assert times == sorted(times)
    assert {e.entity for e in events} == {f"s{i:05d}" for i in range(40)}


def test_synthesis_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_drifting_events("cert", drift="sideways")
    with pytest.raises(KeyError):
        synthesize_drifting_events("no-such-dataset")


@pytest.mark.parametrize("dataset", sorted(NOVEL_ARCHETYPES))
def test_novel_archetypes_use_in_vocabulary_tokens(dataset):
    # The post-drift behaviour must be a *novel combination* of known
    # tokens: lexical OOV drift is a separate (oov_rate) signal.
    generator = DATASET_GENERATORS[dataset]()
    for tokens, _, _ in NOVEL_ARCHETYPES[dataset].phases:
        for token in tokens:
            assert token in generator.vocab


@pytest.mark.parametrize("drift", DRIFT_MODES)
def test_drift_changes_only_the_post_drift_world(drift):
    events = synthesize_drifting_events(
        "cert", n_sessions=200, drift=drift, drift_at=100,
        eta=0.1, eta_after=0.45, malicious_rate=0.1,
        malicious_rate_after=0.45, rng=3)
    by_entity = {}
    for e in events:
        by_entity.setdefault(e.entity, e)
    pre = [by_entity[f"s{i:05d}"] for i in range(100)]
    post = [by_entity[f"s{i:05d}"] for i in range(100, 200)]

    def flip_rate(group):
        return np.mean([e.noisy_label != e.label for e in group])

    def malicious_rate(group):
        return np.mean([e.label for e in group])

    if "noise" in drift:
        assert flip_rate(post) > flip_rate(pre) + 0.15
    else:
        assert abs(flip_rate(post) - flip_rate(pre)) < 0.15
    if "archetype" in drift:
        assert malicious_rate(post) > malicious_rate(pre) + 0.15
    else:
        assert abs(malicious_rate(post) - malicious_rate(pre)) < 0.15
