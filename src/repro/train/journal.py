"""JSONL metric journal: one line per epoch, durable across crashes.

Every :class:`~repro.train.Trainer` epoch appends one JSON object to
the run's journal — loss, pre-clip gradient norm, learning rate,
wall-clock, and (optionally) the ``nn.profile`` op breakdown — and
every completed phase appends an event line.  The file is plain JSONL:
``repro tail`` renders it, tests diff it, and analyses load it with
two lines of stdlib code.

Determinism contract: a journal mixes *deterministic* fields (phase,
epoch, loss, grad_norm, lr, batches — bit-identical between an
uninterrupted run and a kill/resume run with the same seed) with
*timing* fields (``wall_s``, ``profile`` — machine- and run-specific).
:func:`deterministic_entries` projects out exactly the deterministic
part, which is what resume tests and the CI resume-smoke job compare.

Crash posture: :mod:`repro.durable`.  Readers ignore a torn trailing
line, ``resume=True`` compacts it away, and :meth:`MetricJournal.drop`
removes entries a resumed run is about to recompute, so re-run epochs
never appear twice.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Callable, Iterable

from ..durable import append_line, atomic_write, read_lines

__all__ = [
    "MetricJournal",
    "read_journal",
    "deterministic_entries",
    "format_entry",
]

# Fields guaranteed bit-identical between an interrupted-then-resumed
# run and an uninterrupted run with the same seed.
DETERMINISTIC_FIELDS = ("phase", "epoch", "loss", "grad_norm", "lr",
                        "batches")


class MetricJournal:
    """Append-only JSONL journal with crash-safe resume semantics."""

    def __init__(self, path: str | os.PathLike, resume: bool = False):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            # Compact away a torn trailing line from a mid-write crash.
            entries = read_journal(self.path)
            self._rewrite(entries)
        else:
            self.path.write_text("")

    # ------------------------------------------------------------------
    def log(self, **record) -> dict:
        """Append one entry; returns the record as written."""
        append_line(self.path, json.dumps(record))
        return record

    def log_epoch(self, phase: str, epoch: int, loss: float,
                  grad_norm: float, lr: float, batches: int,
                  wall_s: float, profile: dict | None = None) -> dict:
        """Append a training-epoch entry (deterministic fields first)."""
        record = {
            "phase": phase, "epoch": int(epoch), "loss": float(loss),
            "grad_norm": float(grad_norm), "lr": float(lr),
            "batches": int(batches), "wall_s": round(float(wall_s), 6),
        }
        if profile:
            record["profile"] = profile
        return self.log(**record)

    def log_event(self, event: str, phase: str, **extra) -> dict:
        """Append a lifecycle event (phase completion, resume, ...)."""
        return self.log(event=event, phase=phase, **extra)

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        return read_journal(self.path)

    def drop(self, predicate: Callable[[dict], bool]) -> int:
        """Remove entries matching ``predicate``; returns removed count.

        Used on resume to discard epochs that will be recomputed (an
        epoch can be journaled but not yet checkpointed when the
        process dies between the two writes).
        """
        entries = self.entries()
        kept = [e for e in entries if not predicate(e)]
        removed = len(entries) - len(kept)
        if removed:
            self._rewrite(kept)
        return removed

    def _rewrite(self, entries: Iterable[dict]) -> None:
        text = "".join(json.dumps(entry) + "\n" for entry in entries)
        atomic_write(self.path, lambda fh: fh.write(text.encode()),
                     durable=True)


def read_journal(path: str | os.PathLike) -> list[dict]:
    """Parse a journal file, skipping torn/corrupt lines."""
    if not os.path.exists(path):
        return []
    return [entry for _, entry in read_lines(path)
            if isinstance(entry, dict)]


def deterministic_entries(path: str | os.PathLike) -> list[dict]:
    """Epoch entries projected onto the deterministic fields only.

    This is the view two runs of the same seed must agree on exactly —
    the resume tests and the CI resume-smoke job diff it bit for bit.
    """
    return [
        {field: entry[field] for field in DETERMINISTIC_FIELDS
         if field in entry}
        for entry in read_journal(path)
        if "loss" in entry and "event" not in entry
    ]


def format_entry(entry: dict) -> str:
    """One human-readable line per journal entry (``repro tail``)."""
    if "event" in entry:
        extras = " ".join(f"{k}={v}" for k, v in entry.items()
                          if k not in ("event", "phase"))
        return f"[{entry.get('phase', '?'):24s}] {entry['event']} {extras}".rstrip()
    parts = [f"[{entry.get('phase', '?'):24s}]",
             f"epoch {entry.get('epoch', '?'):>4}"]
    for key, fmt in (("loss", "{:.6f}"), ("grad_norm", "{:.4f}"),
                     ("lr", "{:.5f}")):
        if key in entry:
            parts.append(f"{key}={fmt.format(entry[key])}")
    if "wall_s" in entry:
        parts.append(f"{entry['wall_s'] * 1000:.0f}ms")
    if "profile" in entry:
        top = sorted(entry["profile"].items(), key=lambda kv: -kv[1])[:3]
        parts.append("ops[" + " ".join(
            f"{name}={seconds * 1000:.1f}ms" for name, seconds in top) + "]")
    return " ".join(parts)


def _tail_lines(path: str | os.PathLike, n: int,
                phase: str | None = None) -> list[str]:
    """Last ``n`` formatted journal lines (optionally phase-filtered)."""
    entries = read_journal(path)
    if phase is not None:
        entries = [e for e in entries if e.get("phase") == phase]
    return [format_entry(e) for e in entries[-n:]]


def tail_journal(path: str | os.PathLike, n: int = 10,
                 phase: str | None = None, follow: bool = False,
                 poll_seconds: float = 0.5,
                 emit: Callable[[str], None] = print) -> None:
    """Print the journal tail; ``follow=True`` streams new entries."""
    for line in _tail_lines(path, n, phase):
        emit(line)
    if not follow:
        return
    seen = len(read_journal(path))
    while True:  # pragma: no cover - interactive loop
        time.sleep(poll_seconds)
        entries = read_journal(path)
        for entry in entries[seen:]:
            if phase is None or entry.get("phase") == phase:
                emit(format_entry(entry))
        seen = len(entries)
