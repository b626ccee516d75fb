"""The stream processor: windower → engine → drift monitor → re-correction.

:class:`StreamProcessor` owns one end-to-end streaming deployment:

* events come in (from an :class:`~repro.stream.events.EventLog` or any
  ordered iterable), the :class:`~repro.stream.window.SessionWindower`
  closes sessions and emits windows;
* every window's sessions are scored through the existing
  :class:`~repro.serve.InferenceEngine` (micro-batching, quantized
  archives, rolling reload — nothing is re-implemented here);
* per-window score/embedding/OOV statistics feed the
  :class:`~repro.stream.drift.DriftMonitor`; every window is journaled
  through the :class:`~repro.train.MetricJournal` with deterministic
  fields only (no wall clock), and exported as ``stream_*`` gauges on
  the engine's ``/v1/metrics``;
* on alarm the last K windows go through
  :func:`~repro.stream.recorrect.recorrect_model`; the refreshed
  archive is hot-swapped into the engine via the rolling ``reload``
  (no dropped scores) and the monitor re-arms against the new model.

Durable state has two parts, so nothing rewritten per window grows
with the stream.  ``records.jsonl`` is an append-only log: each window
batch appends one line with its scored records and the windower
session counters that changed.  ``checkpoint.json`` is a small head:
the bounded state (windower open/pending sessions, monitor, rng,
counters, current archive, recent windows) plus the committed byte
lengths of ``records.jsonl`` and ``journal.jsonl``.  A commit appends
to the log, then replaces the head, so the head never points past data
on disk (crash posture: :mod:`repro.durable`).  A processor built with
``resume=True`` cuts both files back to the head's lengths (dropping
torn or uncommitted tails, e.g. the journal line of a window whose
batch never committed), replays the log, and produces bit-identical
windows, scores, journal entries and alarms to an uninterrupted run —
the streaming analogue of the trainer's kill-and-resume guarantee
(asserted in ``tests/stream/``).

A re-correction writes no snapshots of its own: its fine-tune epochs
go to the journal only.  It runs inside the window that triggered it,
before that window's batch commits, so a crash mid-re-correction
leaves the head at the previous commit and the resumed run replays the
window, re-correction included, from the head's rng state.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import numpy as np

from ..core import CLFD
from ..core.persistence import load_clfd
from ..durable import append_line, atomic_write, truncate_to
from ..serve.config import ServeConfig
from ..serve.engine import InferenceEngine
from ..train import MetricJournal, TrainRun
from ..train.seeding import generator_state, set_generator_state
from .drift import DriftMonitor
from .events import Event
from .recorrect import recorrect_model
from .window import SessionWindower, StreamSession, Window

__all__ = ["StreamConfig", "StreamProcessor", "compare_with_frozen"]

CHECKPOINT_VERSION = 3


@dataclasses.dataclass(frozen=True)
class StreamConfig:
    """Knobs for one streaming deployment: windowing and re-correction.

    A drift alarm triggers a re-correction on the last
    ``recorrect_windows`` windows, at most ``max_recorrections`` times
    (None: no cap), fine-tuning each head for ``head_epochs`` epochs
    (None: the archive's ``classifier_epochs``).  The drift thresholds
    are constants of :mod:`repro.stream.drift`.
    """

    window_size: float = 20.0
    session_gap: float = 4.0
    max_session_len: int | None = None
    recorrect_windows: int = 6
    max_recorrections: int | None = None
    head_epochs: int | None = None

    def replace(self, **changes) -> "StreamConfig":
        return dataclasses.replace(self, **changes)


class StreamProcessor:
    """Online scoring + drift detection + re-correction over its engine.

    Parameters
    ----------
    archive: the CLFD archive to serve initially; also the frozen
        baseline :func:`compare_with_frozen` evaluates against.
    workdir: state directory — ``checkpoint.json`` (the small head),
        ``records.jsonl`` (the append-only records log),
        ``journal.jsonl`` and ``archives/`` (re-corrected generations).
    config / serve_config: streaming and serving knobs.  The serving
        config is forced to ``include_embeddings=True`` — the centroid
        drift statistic needs the embeddings the engine already
        computes — and its ``score_timeout_s`` bounds each window's
        scoring wait.  The processor builds :attr:`engine` from the
        archive and closes it; share it with e.g. a
        :class:`~repro.serve.ServingServer` through ``proc.engine``.
    seed: seed for the processor's generator (re-correction batching);
        checkpointed, so resumed runs consume the same draws.
    resume: load ``workdir/checkpoint.json``, replay the records log
        up to its commit point and continue from there.
    """

    def __init__(self, archive: str | os.PathLike,
                 workdir: str | os.PathLike, *,
                 config: StreamConfig | None = None,
                 serve_config: ServeConfig | None = None,
                 seed: int = 0, resume: bool = False):
        self.config = config or StreamConfig()
        self.workdir = pathlib.Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "archives").mkdir(exist_ok=True)
        self.initial_archive = pathlib.Path(archive)
        self._checkpoint_path = self.workdir / "checkpoint.json"
        self._records_path = self.workdir / "records.jsonl"

        c = self.config
        self._windower = SessionWindower(
            c.window_size, c.session_gap, max_session_len=c.max_session_len)
        self._monitor = DriftMonitor()
        self._rng = np.random.default_rng(seed)
        self._next_offset = 0
        self._windows_processed = 0
        self._model_generation = 0
        self._recorrections = 0
        self._archive = self.initial_archive
        # Each recent window's sessions as JSON text, encoded once when
        # the window arrives and spliced into every head after it.
        self._recent: list[str] = []
        self._records: list[dict] = []
        # Records-log commit point: bytes on disk, records they hold.
        self._records_bytes = 0
        self._committed_records = 0

        journal_path = self.workdir / "journal.jsonl"
        resumed = resume and self._checkpoint_path.exists()
        if resumed:
            truncate_to(journal_path, self._load_checkpoint())
        else:
            self._records_path.write_bytes(b"")
        self.journal = MetricJournal(journal_path, resume=resumed)

        self.serve_config = (serve_config or ServeConfig()).replace(
            include_embeddings=True)
        # Start the serving generation at the checkpointed model
        # generation so resumed streams stamp results identically to an
        # uninterrupted run (one rolling reload per re-correction).
        self.engine = InferenceEngine.from_archive(
            self._archive, self.serve_config,
            generation=self._model_generation)
        self._export_gauges(drift_score=0.0)

    # ------------------------------------------------------------------
    @property
    def windows_processed(self) -> int:
        return self._windows_processed

    @property
    def model_generation(self) -> int:
        """Re-correction generation (0 = the initial archive)."""
        return self._model_generation

    @property
    def recorrections(self) -> int:
        return self._recorrections

    @property
    def current_archive(self) -> pathlib.Path:
        return self._archive

    @property
    def next_offset(self) -> int:
        """Event-log offset the next :meth:`process_events` resumes at."""
        return self._next_offset

    @property
    def records(self) -> list[dict]:
        """Per-session scoring records, in stream order.

        Each record carries the window index, session identity, raw
        activities, ground-truth/noisy labels, the served score and
        prediction, and both the serving generation and the
        re-correction generation that produced it.
        """
        return list(self._records)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def process_events(self, events, *,
                       max_windows: int | None = None) -> list[dict]:
        """Feed ordered events through; returns per-window summaries.

        ``events`` is any iterable of :class:`Event` (an
        ``EventLog.read(processor.next_offset)`` iterator resumes
        exactly where the checkpoint left off).  With ``max_windows``
        the call returns after that many windows — the resulting
        checkpoint is a valid kill point.
        """
        summaries: list[dict] = []
        for event in events:
            windows = self._windower.process(event)
            if event.offset >= 0:
                self._next_offset = event.offset + 1
            for window in windows:
                summaries.append(self._handle_window(window))
            if windows:
                self._save_checkpoint()
                if (max_windows is not None
                        and len(summaries) >= max_windows):
                    return summaries
        return summaries

    def finish(self) -> list[dict]:
        """Flush the windower at end of stream; handles trailing windows."""
        summaries = [self._handle_window(w) for w in self._windower.flush()]
        self._save_checkpoint()
        return summaries

    def run_log(self, log, *, max_windows: int | None = None,
                flush: bool = True) -> list[dict]:
        """Convenience: process an :class:`EventLog` from the checkpoint."""
        summaries = self.process_events(log.read(self._next_offset),
                                        max_windows=max_windows)
        if flush and (max_windows is None or len(summaries) < max_windows):
            summaries.extend(self.finish())
        return summaries

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "StreamProcessor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One window
    # ------------------------------------------------------------------
    def _handle_window(self, window: Window) -> dict:
        payloads = [{"activities": list(s.activities),
                     "session_id": s.session_id}
                    for s in window.sessions]
        results = (self.engine.score_many(
            payloads, timeout=self.serve_config.score_timeout_s)
            if payloads else [])

        scores = np.asarray([r.score for r in results], dtype=np.float64)
        finite = np.isfinite(scores)
        embeddings = [r.embedding for r in results
                      if r.embedding is not None]
        embedding_arr = (np.asarray(embeddings, dtype=np.float64)
                         if embeddings else None)
        total_tokens = sum(len(s.activities) for s in window.sessions)
        oov_tokens = sum(r.oov_count for r in results)
        oov_rate = oov_tokens / total_tokens if total_tokens else 0.0
        noisy_rate = (float(np.mean([s.noisy_label
                                     for s in window.sessions]))
                      if window.sessions else None)

        reading = self._monitor.observe(
            window.index, scores[finite], embedding_arr, oov_rate,
            noisy_rate=noisy_rate)

        for session, result in zip(window.sessions, results):
            self._records.append({
                "window": window.index,
                "session_id": session.session_id,
                "entity": session.entity,
                "activities": list(session.activities),
                "label": int(session.label),
                "noisy_label": int(session.noisy_label),
                "score": (float(result.score)
                          if np.isfinite(result.score) else None),
                "pred": int(result.label),
                "oov_count": int(result.oov_count),
                "serve_generation": result.generation,
                "model_generation": self._model_generation,
            })
        self._windows_processed += 1
        self._recent.append(
            json.dumps([s.to_dict() for s in window.sessions]))
        del self._recent[:-self.config.recorrect_windows]

        self.journal.log(
            event="window", phase="stream", window=window.index,
            n_sessions=len(window.sessions), oov_rate=round(oov_rate, 6),
            ks=round(reading.ks, 6), ph=round(reading.ph, 6),
            centroid_dist=round(reading.centroid_dist, 6),
            label_z=round(reading.label_z, 6),
            drift_score=round(reading.drift_score, 6),
            alarm=reading.alarm, trigger=reading.trigger,
            generation=self._model_generation)

        recorrected = False
        cap = self.config.max_recorrections
        if reading.alarm and (cap is None or self._recorrections < cap):
            recorrected = self._recorrect() is not None
        self._export_gauges(drift_score=reading.drift_score)
        summary = {
            "window": window.index,
            "n_sessions": len(window.sessions),
            "oov_rate": oov_rate,
            "reading": reading,
            "alarm": reading.alarm,
            "recorrected": recorrected,
            "generation": self._model_generation,
        }
        return summary

    # ------------------------------------------------------------------
    # Re-correction + hot swap
    # ------------------------------------------------------------------
    def _recorrect(self):
        sessions = [StreamSession.from_dict(s)
                    for window in self._recent for s in json.loads(window)]
        if not sessions:
            return None
        # Re-train a fresh copy loaded from the current archive — never
        # the engine's live model, which is concurrently serving.
        model = load_clfd(self._archive)
        if not isinstance(model, CLFD) or model.label_corrector is None:
            # Quantized v3 archives drop the corrector: scoring works,
            # online re-correction is structurally unavailable.
            self.journal.log_event(
                "recorrect-skipped", "stream",
                reason="archive has no corrector (quantized?)")
            return None
        generation = self._model_generation + 1
        # Journal only: nothing would ever load a fine-tune snapshot
        # (a crash replays the whole window from the head).
        run = TrainRun(journal=self.journal, prefix=f"gen{generation}/")
        result = recorrect_model(
            model, sessions, self._rng, generation=generation,
            archive_dir=self.workdir / "archives", run=run,
            head_epochs=self.config.head_epochs)
        serve_generation = self.engine.reload(result.archive)
        self._archive = result.archive
        self._model_generation = generation
        self._recorrections += 1
        self._monitor.reset()
        self.journal.log_event(
            "recorrect", "stream", generation=generation,
            serve_generation=serve_generation,
            n_sessions=result.n_sessions, flipped=result.flipped,
            n_dropped=result.n_dropped, oov_tokens=result.oov_tokens,
            archive=result.archive.name)
        return result

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _export_gauges(self, *, drift_score: float) -> None:
        metrics = self.engine.metrics
        metrics.set_gauge("stream_windows_processed",
                          self._windows_processed)
        metrics.set_gauge("stream_drift_score", round(drift_score, 6))
        metrics.set_gauge("stream_alarms_total", self._monitor.alarms)
        metrics.set_gauge("stream_recorrect_generation",
                          self._model_generation)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _save_checkpoint(self) -> None:
        """Commit the window batch: append to the log, then the head."""
        records = self._records[self._committed_records:]
        counts = self._windower.take_count_updates()
        if records or counts:
            self._records_bytes = append_line(
                self._records_path,
                json.dumps({"records": records, "session_counts": counts}))
            self._committed_records = len(self._records)
        state = {
            "version": CHECKPOINT_VERSION,
            "records_bytes": self._records_bytes,
            "journal_bytes": self.journal.path.stat().st_size,
            "next_offset": self._next_offset,
            "windower": self._windower.state_dict(),
            "monitor": self._monitor.state_dict(),
            "rng": generator_state(self._rng),
            "windows_processed": self._windows_processed,
            "model_generation": self._model_generation,
            "recorrections": self._recorrections,
            "archive": str(self._archive),
        }
        # "recent" goes last, spliced from the cached window texts: the
        # head is the exact bytes of json.dumps(state) with "recent" in
        # it, without re-encoding K windows of sessions per commit.
        head = (json.dumps(state)[:-1] + ', "recent": ['
                + ", ".join(self._recent) + "]}").encode()
        atomic_write(self._checkpoint_path, lambda fh: fh.write(head),
                     durable=False)

    def _load_checkpoint(self) -> int:
        """Restore the head and replay the log; returns the committed
        journal length for the caller to cut the journal back to."""
        state = json.loads(self._checkpoint_path.read_text())
        if state.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"{self._checkpoint_path} is not a version-"
                f"{CHECKPOINT_VERSION} stream checkpoint; stream "
                "workdirs are not migrated — restart the stream "
                "without resume (or in a fresh workdir)")
        self._next_offset = int(state["next_offset"])
        self._windower.load_state_dict(state["windower"])
        self._monitor.load_state_dict(state["monitor"])
        set_generator_state(self._rng, state["rng"])
        self._windows_processed = int(state["windows_processed"])
        self._model_generation = int(state["model_generation"])
        self._recorrections = int(state["recorrections"])
        self._archive = pathlib.Path(state["archive"])
        self._recent = [json.dumps(window) for window in state["recent"]]

        self._records_bytes = int(state["records_bytes"])
        truncate_to(self._records_path, self._records_bytes)
        with open(self._records_path, "rb") as fh:
            for line in fh:
                batch = json.loads(line)
                self._records.extend(batch["records"])
                self._windower.restore_counts(batch["session_counts"])
        self._committed_records = len(self._records)
        return int(state["journal_bytes"])


# ----------------------------------------------------------------------
# Evaluation helper
# ----------------------------------------------------------------------
def compare_with_frozen(records: list[dict],
                        frozen_archive: str | os.PathLike,
                        serve_config: ServeConfig | None = None,
                        *, min_generation: int = 1) -> dict:
    """Post-drift AUC of the live stream vs the frozen initial model.

    Takes the processor's :attr:`~StreamProcessor.records`, keeps the
    sessions scored at re-correction generation >= ``min_generation``
    (i.e. after the first hot swap), re-scores exactly those sessions
    with the *frozen* archive, and returns both AUCs.  This is the
    smoke-test oracle for "online re-correction helps": same sessions,
    same ground truth, only the model differs.
    """
    from ..metrics.classification import auc_roc

    post = [r for r in records
            if r["model_generation"] >= min_generation
            and r["score"] is not None]
    if not post:
        return {"n_sessions": 0, "live_auc": float("nan"),
                "frozen_auc": float("nan")}
    labels = np.asarray([r["label"] for r in post], dtype=np.int64)
    live = np.asarray([r["score"] for r in post], dtype=np.float64)
    config = (serve_config or ServeConfig()).replace(
        include_embeddings=False)
    with InferenceEngine.from_archive(frozen_archive, config) as engine:
        results = engine.score_many(
            [{"activities": r["activities"],
              "session_id": r["session_id"]} for r in post])
    frozen = np.asarray([r.score for r in results], dtype=np.float64)
    return {
        "n_sessions": len(post),
        "live_auc": float(auc_roc(labels, live)),
        "frozen_auc": float(auc_roc(labels, frozen)),
    }
