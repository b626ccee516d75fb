"""Incremental session assembly: events -> closed sessions -> windows.

:class:`SessionWindower` turns an ordered event stream into
:class:`Window`\\ s of closed :class:`StreamSession`\\ s:

* events of one entity accumulate into an *open* session;
* a session **closes** when its entity goes silent for ``session_gap``
  time units (close time = last event + gap), or immediately when it
  reaches ``max_session_len`` events;
* closed sessions land in tumbling windows of ``window_size`` time
  units keyed by *close* time: window ``k`` holds the closes in
  ``[k * window_size, (k + 1) * window_size)``; a window is
  **emitted** once the stream watermark passes its end, at which point
  no still-open session can close into it.

Determinism contract: the emitted windows are a pure function of the
event sequence.  Sessions inside a window are ordered by
``(close_time, entity)`` — no dict-iteration or arrival-jitter order —
and the windower state round-trips through JSON, so replaying a log
from a mid-stream checkpoint produces bit-identical windows to a replay
from offset 0 (asserted by ``tests/stream/test_window.py``).

The state has two parts.  :meth:`state_dict` / :meth:`load_state_dict`
carry the bounded part (open sessions, pending windows, watermark).
The per-entity session counters grow with the stream (one entry per
entity ever seen), so they travel as increments instead: the caller
logs :meth:`SessionWindower.take_count_updates` on every commit and
replays those entries with :meth:`SessionWindower.restore_counts`
after loading.
"""

from __future__ import annotations

import dataclasses
import math

from .events import Event

__all__ = ["StreamSession", "Window", "SessionWindower"]


@dataclasses.dataclass(frozen=True)
class StreamSession:
    """One closed session: what the windower hands to scoring.

    ``activities`` are the raw event activities (tokens or ids) in
    arrival order; encoding against a model vocabulary happens
    downstream.  ``label`` is ground truth (evaluation only),
    ``noisy_label`` the stream annotation re-correction trains on.
    """

    session_id: str
    entity: str
    activities: tuple
    noisy_label: int
    label: int
    first_time: float
    last_time: float
    close_time: float
    start_offset: int
    end_offset: int

    def to_dict(self) -> dict:
        # Field by field, in declaration order: ``dataclasses.asdict``
        # deep-copies every value, and every field here is immutable.
        return {
            "session_id": self.session_id,
            "entity": self.entity,
            "activities": self.activities,
            "noisy_label": self.noisy_label,
            "label": self.label,
            "first_time": self.first_time,
            "last_time": self.last_time,
            "close_time": self.close_time,
            "start_offset": self.start_offset,
            "end_offset": self.end_offset,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamSession":
        payload = dict(payload)
        payload["activities"] = tuple(payload["activities"])
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class Window:
    """One emitted window: ``sessions`` closed in ``[start, end)``."""

    index: int
    start: float
    end: float
    sessions: tuple[StreamSession, ...]

    def __len__(self) -> int:
        return len(self.sessions)


class SessionWindower:
    """Gap-closed sessions over tumbling windows.

    Parameters
    ----------
    window_size: window length in stream time units.
    session_gap: silence after which an entity's open session closes.
    max_session_len: hard cap on events per session; a session hitting
        it closes immediately (close time = its last event time).
    """

    def __init__(self, window_size: float, session_gap: float,
                 max_session_len: int | None = None):
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if session_gap <= 0:
            raise ValueError("session_gap must be positive")
        if max_session_len is not None and max_session_len < 1:
            raise ValueError("max_session_len must be >= 1")
        self.window_size = float(window_size)
        self.session_gap = float(session_gap)
        self.max_session_len = max_session_len
        # Mutable stream state — everything below is captured by
        # state_dict() and must stay JSON-serialisable.
        self._open: dict[str, dict] = {}
        self._pending: dict[int, list[dict]] = {}
        self._session_counts: dict[str, int] = {}
        # Counters changed since the last take_count_updates().
        self._count_updates: dict[str, int] = {}
        self._watermark = -math.inf
        self._next_emit = 0

    # ------------------------------------------------------------------
    def process(self, event: Event) -> list[Window]:
        """Consume one event; returns any windows it finalised."""
        t = float(event.time)
        if t < self._watermark:
            raise ValueError(
                f"events must be time-ordered: got t={t} after "
                f"watermark {self._watermark}")
        self._watermark = t
        self._close_due(t)
        windows = self._emit_ready(t)

        state = self._open.get(event.entity)
        if state is None:
            count = self._session_counts.get(event.entity, 0)
            self._session_counts[event.entity] = count + 1
            self._count_updates[event.entity] = count + 1
            state = {
                "session_id": f"{event.entity}/{count}",
                "entity": event.entity,
                "activities": [],
                "noisy_label": int(event.noisy_label),
                "label": int(event.label),
                "first_time": t,
                "last_time": t,
                "start_offset": int(event.offset),
                "end_offset": int(event.offset),
            }
            self._open[event.entity] = state
        state["activities"].append(event.activity)
        state["last_time"] = t
        state["end_offset"] = int(event.offset)
        if (self.max_session_len is not None
                and len(state["activities"]) >= self.max_session_len):
            del self._open[event.entity]
            self._bucket(state, close_time=t)
        return windows

    def flush(self) -> list[Window]:
        """End of stream: close every open session, emit every window."""
        close_at = self._watermark + self.session_gap
        for entity in sorted(self._open):
            self._bucket(self._open.pop(entity), close_time=close_at)
        windows = []
        for index in sorted(self._pending):
            if index >= self._next_emit:
                windows.append(self._build_window(index))
        for window in windows:
            self._pending.pop(window.index, None)
        if windows:
            self._next_emit = windows[-1].index + 1
        return windows

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _close_due(self, t: float) -> None:
        """Close every session silent for >= gap at watermark ``t``."""
        due = [entity for entity, state in self._open.items()
               if state["last_time"] + self.session_gap <= t]
        for entity in due:
            state = self._open.pop(entity)
            self._bucket(state,
                         close_time=state["last_time"] + self.session_gap)

    def _bucket(self, state: dict, close_time: float) -> None:
        """Assign a closed session to the window covering its close."""
        session = dict(state)
        session["close_time"] = float(close_time)
        session["activities"] = list(session["activities"])
        # The quotients bound the candidates; the half-open
        # [start, start + window_size) test decides, as emission does.
        k_max = math.floor(close_time / self.window_size)
        k_min = math.floor((close_time - self.window_size)
                           / self.window_size) + 1
        for index in range(max(k_min, 0), k_max + 1):
            start = index * self.window_size
            if start <= close_time < start + self.window_size:
                self._pending.setdefault(index, []).append(session)

    def _emit_ready(self, t: float) -> list[Window]:
        """Emit every window whose end the watermark has passed."""
        windows = []
        while self._next_emit * self.window_size + self.window_size <= t:
            windows.append(self._build_window(self._next_emit))
            self._pending.pop(self._next_emit, None)
            self._next_emit += 1
        return windows

    def _build_window(self, index: int) -> Window:
        sessions = self._pending.get(index, [])
        sessions = sorted(sessions,
                          key=lambda s: (s["close_time"], s["entity"],
                                         s["session_id"]))
        start = index * self.window_size
        return Window(
            index=index, start=start, end=start + self.window_size,
            sessions=tuple(StreamSession.from_dict(s) for s in sessions),
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the bounded stream state.

        Holds everything but the per-entity session counters, which
        the caller persists through :meth:`take_count_updates`.
        """
        return {
            "open": [dict(state, activities=list(state["activities"]))
                     for state in self._open.values()],
            "pending": {str(index): [dict(s) for s in sessions]
                        for index, sessions in self._pending.items()},
            "watermark": (None if math.isinf(self._watermark)
                          else self._watermark),
            "next_emit": self._next_emit,
        }

    def take_count_updates(self) -> dict[str, int]:
        """Session counters changed since the previous call.

        Returns ``{entity: count}`` for every entity that opened a
        session since then and starts a fresh change set — the
        increment an append-only log needs on each commit.
        """
        updates, self._count_updates = self._count_updates, {}
        return updates

    def restore_counts(self, counts: dict[str, int]) -> None:
        """Apply counter entries from :meth:`take_count_updates`."""
        self._session_counts.update(
            (str(k), int(v)) for k, v in counts.items())

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The session counters start empty; replay the logged entries
        with :meth:`restore_counts`.
        """
        self._open = {entry["entity"]: dict(entry,
                                            activities=list(
                                                entry["activities"]))
                      for entry in state["open"]}
        self._pending = {int(index): [dict(s) for s in sessions]
                         for index, sessions in state["pending"].items()}
        self._session_counts = {}
        self._count_updates = {}
        watermark = state["watermark"]
        self._watermark = -math.inf if watermark is None else float(watermark)
        self._next_emit = int(state["next_emit"])
