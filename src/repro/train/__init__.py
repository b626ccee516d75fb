"""Checkpointed, observable, fault-tolerant training runtime.

The ``repro.train`` package is the single substrate every epoch loop in
the repo runs on:

* :class:`Trainer` — the event loop (snapshots, journal);
* :class:`TrainRun` — per-run wiring of checkpoints + journal + resume,
  threaded through ``fit(..., run=...)`` on CLFD, co-teaching and the
  sequence-LM baselines;
* :class:`CheckpointManager` — atomic tagged snapshots (params,
  optimizer moments, RNG state) as flattened ``.npz`` archives;
* :class:`MetricJournal` — crash-safe JSONL metrics
  (``repro tail`` renders it);
* :func:`seed_everything` and the RNG state helpers — the determinism
  backbone that makes kill-and-resume bit-identical.
"""

from .checkpoint import CheckpointManager
from .journal import (
    DETERMINISTIC_FIELDS,
    MetricJournal,
    deterministic_entries,
    format_entry,
    read_journal,
    tail_journal,
)
from .run import TrainRun
from .seeding import generator_state, seed_everything, set_generator_state
from .trainer import Trainer, TrainingInterrupted

__all__ = [
    "Trainer", "TrainingInterrupted", "TrainRun", "CheckpointManager",
    "MetricJournal", "read_journal", "deterministic_entries",
    "format_entry", "tail_journal", "DETERMINISTIC_FIELDS",
    "seed_everything", "generator_state", "set_generator_state",
]
