"""Session assembly and window emission, including replay determinism."""

import dataclasses
import json

import pytest

from repro.stream import Event, SessionWindower, StreamSession


def _event(t, entity="u0", activity="a", offset=-1):
    return Event(time=t, entity=entity, activity=activity, offset=offset)


def _stream(windower, events):
    windows = []
    for event in events:
        windows.extend(windower.process(event))
    windows.extend(windower.flush())
    return windows


def test_gap_closes_sessions():
    windower = SessionWindower(window_size=10.0, session_gap=2.0)
    events = [_event(0.0), _event(1.0), _event(5.0), _event(6.0)]
    windows = _stream(windower, events)
    sessions = [s for w in windows for s in w.sessions]
    assert [s.activities for s in sessions] == [("a", "a"), ("a", "a")]
    # close = last event + gap; the second burst closes via flush.
    assert sessions[0].close_time == 3.0
    assert [s.session_id for s in sessions] == ["u0/0", "u0/1"]


def test_max_session_len_closes_at_last_event():
    windower = SessionWindower(window_size=10.0, session_gap=5.0,
                               max_session_len=2)
    windows = _stream(windower, [_event(0.0), _event(1.0), _event(2.0)])
    sessions = [s for w in windows for s in w.sessions]
    assert [len(s.activities) for s in sessions] == [2, 1]
    assert sessions[0].close_time == 1.0  # capped: closes immediately


def test_sessions_keep_event_offsets():
    windower = SessionWindower(window_size=10.0, session_gap=1.0)
    windows = _stream(windower, [_event(0.0, offset=4),
                                 _event(0.5, offset=5)])
    (session,) = [s for w in windows for s in w.sessions]
    assert (session.start_offset, session.end_offset) == (4, 5)


def test_session_to_dict_is_asdict_in_field_order():
    windower = SessionWindower(window_size=10.0, session_gap=1.0)
    windows = _stream(windower, [_event(0.0, offset=4),
                                 _event(0.5, activity="b", offset=5)])
    (session,) = [s for w in windows for s in w.sessions]
    payload = session.to_dict()
    assert payload == dataclasses.asdict(session)
    assert list(payload) == [f.name for f in dataclasses.fields(session)]
    assert StreamSession.from_dict(payload) == session


def test_windows_emit_when_watermark_passes_end():
    windower = SessionWindower(window_size=5.0, session_gap=1.0)
    assert windower.process(_event(0.0, "u0")) == []
    assert windower.process(_event(3.0, "u1")) == []
    # Watermark 5.0 seals window 0; u0 closed into it at t=1.0.
    (window,) = windower.process(_event(5.0, "u2"))
    assert (window.index, window.start, window.end) == (0, 0.0, 5.0)
    assert [s.entity for s in window.sessions] == ["u0", "u1"]


def test_sliding_windows_duplicate_by_close_time():
    windower = SessionWindower(window_size=10.0, session_gap=1.0,
                               slide=5.0)
    windows = _stream(windower, [_event(12.0)])
    # close at t=13: covered by [5, 15) and [10, 20).
    covering = [w.index for w in windows if w.sessions]
    assert covering == [1, 2]


def test_out_of_order_event_rejected():
    windower = SessionWindower(window_size=10.0, session_gap=1.0)
    windower.process(_event(5.0))
    with pytest.raises(ValueError, match="time-ordered"):
        windower.process(_event(4.0))


def test_sessions_sorted_by_close_then_entity():
    windower = SessionWindower(window_size=50.0, session_gap=1.0)
    events = sorted([_event(3.0, "zz"), _event(3.0, "aa"),
                     _event(1.0, "mm")], key=lambda e: e.time)
    windows = _stream(windower, events)
    sessions = [s for w in windows for s in w.sessions]
    assert [s.entity for s in sessions] == ["mm", "aa", "zz"]


def test_constructor_validation():
    with pytest.raises(ValueError):
        SessionWindower(window_size=0.0, session_gap=1.0)
    with pytest.raises(ValueError):
        SessionWindower(window_size=1.0, session_gap=0.0)
    with pytest.raises(ValueError):
        SessionWindower(window_size=1.0, session_gap=1.0, slide=2.0)
    with pytest.raises(ValueError):
        SessionWindower(window_size=1.0, session_gap=1.0,
                        max_session_len=0)


@pytest.mark.parametrize("split_at", [1, 7, 20])
def test_checkpoint_resume_is_bit_identical(split_at):
    """The snapshot plus the logged counter updates restore the windower
    exactly (entities recur, so the counters decide the session ids)."""
    events = []
    for i in range(30):
        events.append(_event(float(i), entity=f"u{i % 4}",
                             activity=f"act{i % 3}", offset=i))

    def make():
        return SessionWindower(window_size=6.0, session_gap=2.0,
                               max_session_len=4)

    baseline = _stream(make(), events)

    first, windows, log = make(), [], []
    for i, event in enumerate(events[:split_at]):
        windows.extend(first.process(event))
        if i % 3 == 0:  # commit every few events, as the processor does
            log.append(first.take_count_updates())
    log.append(first.take_count_updates())
    assert first.take_count_updates() == {}
    # Round-trip through serialized JSON — exactly what the processor's
    # head and records log store on disk.
    state, log = json.loads(json.dumps([first.state_dict(), log]))
    assert "session_counts" not in state

    resumed = make()
    resumed.load_state_dict(state)
    for updates in log:
        resumed.restore_counts(updates)
    assert resumed.take_count_updates() == {}
    for event in events[split_at:]:
        windows.extend(resumed.process(event))
    windows.extend(resumed.flush())
    assert windows == baseline
