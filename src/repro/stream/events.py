"""Event model, append-only event log, and synthetic drifting streams.

The streaming tier consumes an ordered sequence of :class:`Event`
records — one activity of one entity at one logical time.  Two sources
provide them:

* :class:`EventLog` — an append-only JSONL file on disk.  Offsets are
  line numbers, so ``read(start)`` replays the exact same events from
  any position; the whole streaming pipeline downstream is a pure
  function of the event sequence, which is what makes kill-and-resume
  bit-identical.
* :func:`synthesize_drifting_events` — a deterministic generator built
  on the benchmark archetypes (:mod:`repro.data.generators`) that
  interleaves concurrent sessions over a logical clock and, at a chosen
  point, shifts the world: the malicious archetype mixture changes
  (novel attack behaviour assembled from in-vocabulary tokens), the
  label-noise rate changes, or both.  This is the repo's stand-in for a
  live fraud stream whose attack patterns and annotation quality drift.

Events carry both the heuristic ``noisy_label`` (what an online
annotator would attach, and what re-correction trains on) and the
ground-truth ``label`` (evaluation only, never shown to the learner) —
the same contract as :class:`repro.data.sessions.Session`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..data.generators import DATASET_GENERATORS, Archetype
from ..data.sessions import MALICIOUS, NORMAL
from ..durable import append_line, read_lines

__all__ = ["Event", "EventLog", "synthesize_drifting_events",
           "write_events", "NOVEL_ARCHETYPES", "DRIFT_MODES"]


@dataclasses.dataclass(frozen=True)
class Event:
    """One activity of one entity at one logical time.

    ``activity`` is a vocabulary token string or an integer activity id
    (the serving layer accepts both).  ``offset`` is the event's
    position in its log (assigned by :class:`EventLog`; ``-1`` for
    events that never touched a log).
    """

    time: float
    entity: str
    activity: str | int
    noisy_label: int = 0
    label: int = 0
    offset: int = -1

    def to_dict(self) -> dict:
        return {"time": self.time, "entity": self.entity,
                "activity": self.activity,
                "noisy_label": int(self.noisy_label),
                "label": int(self.label)}

    @classmethod
    def from_dict(cls, payload: dict, offset: int = -1) -> "Event":
        return cls(time=float(payload["time"]),
                   entity=str(payload["entity"]),
                   activity=payload["activity"],
                   noisy_label=int(payload.get("noisy_label", 0)),
                   label=int(payload.get("label", 0)),
                   offset=offset)


class EventLog:
    """Append-only JSONL event log with offset-addressed replay.

    One JSON object per line; the offset of an event is its line
    number.  Crash posture: :mod:`repro.durable`.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.touch()

    def append(self, event: Event) -> int:
        """Append one event; returns the offset it was written at."""
        append_line(self.path, json.dumps(event.to_dict()))
        return len(self) - 1

    def extend(self, events: Iterable[Event]) -> int:
        """Append many events in one write; returns the next offset."""
        lines = [json.dumps(event.to_dict()) for event in events]
        if lines:
            append_line(self.path, "\n".join(lines))
        return len(self)

    def read(self, start: int = 0) -> Iterator[Event]:
        """Yield events from ``start`` onward, offsets attached."""
        for offset, payload in read_lines(self.path, start):
            yield Event.from_dict(payload, offset=offset)

    def __iter__(self) -> Iterator[Event]:
        return self.read(0)

    def __len__(self) -> int:
        with open(self.path) as fh:
            return sum(1 for line in fh if line.strip())


# ----------------------------------------------------------------------
# Synthetic drifting streams
# ----------------------------------------------------------------------

DRIFT_MODES = ("none", "archetype", "noise", "archetype+noise")

# Post-drift malicious behaviour per dataset: a *novel* archetype the
# frozen model never trained on, assembled purely from in-vocabulary
# tokens so the shift is behavioural (new combinations), not lexical.
# Deliberately *stealthy*: each is dominated by tokens that occur in
# benign archetypes, so the frozen model tends to score these sessions
# as normal — the headroom online re-correction is supposed to
# recover.  Mirrors the paper's setting where new attack playbooks
# re-use ordinary primitive activities.
NOVEL_ARCHETYPES: dict[str, Archetype] = {
    # Document hoarder: daytime logon, sustained open/archive sweeps
    # over the intranet, internal mail — every token routine on its
    # own, anomalous only in combination and volume.
    "cert": Archetype(
        "stealth-hoarder", MALICIOUS,
        [(["logon_am", "logon_desk"], 1, 1),
         (["file_open_doc", "file_archive", "web_intranet"], 5, 9),
         (["email_send_int", "file_open_doc"], 2, 4),
         (["logoff"], 1, 1)]),
    # Sleeper promoter: reads like a copy editor, then saturates
    # articles with links (the tolerated promo tokens, at vandal rate).
    "umd-wikipedia": Archetype(
        "sleeper-promoter", MALICIOUS,
        [(["view_article", "view_talk"], 1, 2),
         (["add_link", "add_spam_link", "edit_article"], 4, 8),
         (["create_page", "add_category"], 1, 3)]),
    # Snapshot squatter: a normal boot followed by a snapshot/volume
    # exfiltration loop built from healthy-lifecycle tokens.
    "openstack": Archetype(
        "snapshot-squatter", MALICIOUS,
        [(["api_create", "sched_pick_host"], 2, 3),
         (["vm_spawn", "vm_boot"], 1, 2),
         (["snapshot_create", "volume_attach", "image_fetch"], 5, 9)]),
}


def synthesize_drifting_events(
        dataset: str = "cert", *,
        n_sessions: int = 400,
        drift_at: int | None = None,
        drift: str = "archetype+noise",
        eta: float = 0.1,
        eta_after: float = 0.3,
        malicious_rate: float = 0.1,
        malicious_rate_after: float | None = None,
        spacing: float = 3.0,
        step: float = 1.0,
        max_session_length: int = 16,
        rng: np.random.Generator | int = 0,
) -> list[Event]:
    """Deterministic drifting event stream over benchmark archetypes.

    Sessions ``0..n_sessions-1`` start at logical times ``i * spacing``
    with one event every ``step`` time units, so neighbouring sessions
    interleave on the wire; each session has its own entity id
    (``s00042``), which is what the gap-based windower keys on.

    Sessions at index ``>= drift_at`` (default: ``n_sessions // 2``;
    pass ``drift="none"`` for a stationary stream) are drawn from the
    shifted world:

    * ``"archetype"`` — malicious sessions come from the dataset's
      novel archetype (:data:`NOVEL_ARCHETYPES`) and the malicious rate
      rises to ``malicious_rate_after`` (default ``3 * malicious_rate``);
    * ``"noise"`` — the label-flip rate changes from ``eta`` to
      ``eta_after``;
    * ``"archetype+noise"`` — both.

    Returns the events sorted by ``(time, entity)`` — the canonical
    stream order.  Everything is a pure function of the arguments and
    the seed.
    """
    if drift not in DRIFT_MODES:
        raise ValueError(f"drift must be one of {DRIFT_MODES}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    try:
        generator = DATASET_GENERATORS[dataset](
            max_session_length=max_session_length)
    except KeyError:
        raise KeyError(f"unknown dataset {dataset!r}; options: "
                       f"{sorted(DATASET_GENERATORS)}") from None
    if drift == "none":
        drift_at = n_sessions  # never reached
    elif drift_at is None:
        drift_at = n_sessions // 2
    if malicious_rate_after is None:
        malicious_rate_after = min(3.0 * malicious_rate, 0.5)
    novel = NOVEL_ARCHETYPES[dataset]
    vocab = generator.vocab

    events: list[Event] = []
    for i in range(n_sessions):
        drifted = i >= drift_at
        rate = malicious_rate_after if drifted and "archetype" in drift \
            else malicious_rate
        flip = eta_after if drifted and "noise" in drift else eta
        label = MALICIOUS if rng.random() < rate else NORMAL
        if label == MALICIOUS and drifted and "archetype" in drift:
            tokens = novel.sample(generator._token_pool, rng)
            tokens = tokens[:max_session_length]
        else:
            session = generator.sample_session(label, rng)
            tokens = vocab.decode(session.activities)
        noisy = 1 - label if rng.random() < flip else label
        entity = f"s{i:05d}"
        start = i * spacing
        for j, token in enumerate(tokens):
            events.append(Event(time=start + j * step, entity=entity,
                                activity=token, noisy_label=noisy,
                                label=label))
    events.sort(key=lambda e: (e.time, e.entity))
    return events


def write_events(path: str | os.PathLike,
                 events: Sequence[Event]) -> "EventLog":
    """Persist a synthesized stream as an :class:`EventLog`."""
    log = EventLog(path)
    log.extend(events)
    return log
