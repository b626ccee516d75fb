"""TrainRun: one object that wires checkpoints + journal through a fit.

A :class:`TrainRun` carries everything a resumable training run needs —
the :class:`~repro.train.CheckpointManager`, the
:class:`~repro.train.MetricJournal`, the resume flag, snapshot cadence,
and the optional ``stop_after`` crash-drill directive — and hands out
correctly-wired :class:`~repro.train.Trainer` instances and phase-level
checkpoints to the model code.

Model ``fit`` methods take ``run: TrainRun | None = None``.  A default
(inert) ``TrainRun()`` has no checkpoint directory and no journal, so
every call degrades to the plain in-memory loop the repo always had;
passing a real run turns the same code path into a checkpointed,
journaled, resumable one.

Scoping: composite models nest scopes with :meth:`scoped` — CLFD hands
its label corrector ``run.scoped("corrector/")`` so the corrector's
``"ssl"`` trainer snapshots under ``"corrector/ssl"``.  Phase-level
state that isn't an epoch loop (the fitted vectorizer, corrected
labels) goes through :meth:`save_phase` / :meth:`load_phase` under the
same namespace.
"""

from __future__ import annotations

import copy
import os

from .checkpoint import CheckpointManager
from .journal import MetricJournal
from .trainer import Trainer, TrainingInterrupted

__all__ = ["TrainRun"]


class TrainRun:
    """Shared context for one (possibly resumed) training run.

    Parameters
    ----------
    checkpoint_dir: directory for snapshots; None makes the run inert
        (no checkpoints, plain loops).
    journal: journal path or an existing :class:`MetricJournal`; None
        disables journaling.
    resume: load existing snapshots and continue; False starts fresh
        (stale snapshots are overwritten, the journal is truncated).
    snapshot_every: epoch-snapshot cadence inside each Trainer scope
        (phase boundaries always snapshot).
    stop_after: crash-drill directive — ``"<tag>"`` raises
        :class:`TrainingInterrupted` right after that phase/scope's
        checkpoint lands, ``"<scope>@N"`` after epoch ``N``'s snapshot.
    profile: attach ``nn.profile`` op breakdowns to journal entries.
    detect_anomaly: run every Trainer batch under ``nn.detect_anomaly()``
        so a NaN/inf is pinned to its creating op (and journaled) instead
        of corrupting the parameters.
    """

    def __init__(self, checkpoint_dir: str | os.PathLike | None = None,
                 journal: MetricJournal | str | os.PathLike | None = None,
                 *, resume: bool = False, snapshot_every: int = 1,
                 stop_after: str | None = None, profile: bool = False,
                 detect_anomaly: bool = False, prefix: str = ""):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.checkpoints = (CheckpointManager(checkpoint_dir)
                            if checkpoint_dir is not None else None)
        if journal is None or isinstance(journal, MetricJournal):
            self.journal = journal
        else:
            self.journal = MetricJournal(journal, resume=resume)
        self.resume = resume
        self.snapshot_every = snapshot_every
        self.stop_after = stop_after
        self.profile = profile
        self.detect_anomaly = detect_anomaly
        self.prefix = prefix

    # ------------------------------------------------------------------
    def scoped(self, prefix: str) -> "TrainRun":
        """A view of this run with ``prefix`` prepended to every tag."""
        view = copy.copy(self)
        view.prefix = self.prefix + prefix
        return view

    def trainer(self, scope: str, modules, optimizer, *,
                grad_clip: float | None = None) -> Trainer:
        """Build a Trainer wired to this run's checkpoints and journal."""
        return Trainer(self, modules, optimizer, grad_clip=grad_clip,
                       scope=self.prefix + scope)

    # ------------------------------------------------------------------
    # Phase-level checkpoints (state between epoch loops: the fitted
    # vectorizer, corrected labels, fraud-detector centroids, ...).
    # ------------------------------------------------------------------
    def load_phase(self, tag: str) -> dict | None:
        """The saved state for a completed phase, or None.

        Returns None unless this is a resume run with a checkpoint
        directory and the phase actually completed — callers fall
        through to computing the phase from scratch.
        """
        if not self.resume or self.checkpoints is None:
            return None
        state = self.checkpoints.load(self.prefix + tag)
        if state is not None and self.journal is not None:
            self.journal.log_event("phase_restored", self.prefix + tag)
        return state

    def save_phase(self, tag: str, state: dict) -> None:
        """Checkpoint a completed phase; honours ``stop_after``."""
        full = self.prefix + tag
        if self.checkpoints is not None:
            self.checkpoints.save(full, state)
        if self.journal is not None:
            self.journal.log_event("phase_complete", full)
        if self.stop_after == full:
            raise TrainingInterrupted(full)
