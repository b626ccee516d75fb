"""One crash matrix over every durable file boundary.

Every file the package persists is written through ``repro.durable``.
This matrix crosses each boundary that uses it with each failpoint,
injected by monkeypatching the ``os`` calls that module makes:

* ``fsync``: the temp file's fsync before the rename raises;
* ``replace``: the ``os.replace`` onto the target raises;
* ``dir-fsync``: the directory fsync after the rename raises;
* ``torn-append``: an append writes half its bytes, then raises.

A boundary's posture decides which failpoints it can reach: a durable
whole-file write reaches the first three, a fast one (once per cell or
window) only ``replace``, a log only ``torn-append``.  A failpoint the
posture never reaches must not fire, so each row also pins the cost
posture: the per-window and per-cell writes never fsync.

When the failpoint fires at the boundary's ``nth`` write to its target,
the row asserts that

* the target holds exactly the bytes of the last completed write
  (the old bytes); after a failing directory fsync, the rename has
  landed and it holds the complete new bytes; a torn log holds its old
  bytes plus one unterminated half line, which readers skip;
* no temp file survives anywhere under the run's directory;
* the boundary's resume path ends byte-identical to an uninterrupted
  run (rows that never fire resume too: a resume after completion
  must change nothing).
"""

import json
import os
import pathlib
import stat

import numpy as np
import pytest

from repro.nn.serialize import save_arrays
from repro.parallel import RunCache
from repro.stream import Event, EventLog
from repro.train import MetricJournal, TrainRun, deterministic_entries

# Imported fixtures register for this module: the stream model and the
# uninterrupted stream run of tests/stream are reused as they are.
from .stream.conftest import (  # noqa: F401
    stream_archive,
    stream_model,
    stream_split,
)
from .stream.test_durability import (  # noqa: F401
    _archives,
    _processor,
    _window_entries,
    clean,
)
from .train.test_trainer import EPOCHS, _problem, _weights

FAILPOINTS = ("fsync", "replace", "dir-fsync", "torn-append")

# The os calls each posture makes, named by the failpoint on each.
REACHES = {
    "durable": {"fsync", "replace", "dir-fsync"},
    "fast": {"replace"},
    "log": {"torn-append"},
}


class Crash(Exception):
    """The injected fault."""


class Disk:
    """Wraps ``os.fsync``, ``os.replace`` and ``os.write`` for one target.

    Records the target's bytes after every completed rename onto it or
    append to it, and raises :class:`Crash` at the ``nth`` call of
    ``failpoint`` that concerns the target.
    """

    def __init__(self, monkeypatch, target, failpoint, nth):
        self.target = pathlib.Path(target)
        self.failpoint, self.nth = failpoint, nth
        self.commits = []  # target bytes after each completed write
        self.renames = 0   # completed renames onto the target
        self.seen = 0      # calls of the failpoint that concern the target
        self._renamed = False
        self._fsync, self._replace, self._write = (
            os.fsync, os.replace, os.write)
        monkeypatch.setattr(os, "fsync", self.fsync)
        monkeypatch.setattr(os, "replace", self.replace)
        monkeypatch.setattr(os, "write", self.write)

    def _tick(self, failpoint):
        if failpoint == self.failpoint:
            self.seen += 1
            if self.seen == self.nth:
                raise Crash(failpoint)

    def _is_target(self, st):
        try:
            return os.path.samestat(st, os.stat(self.target))
        except FileNotFoundError:
            return False

    def _is_temp(self, st):
        pattern = f".{self.target.name}.*.tmp"
        return any(os.path.samestat(st, os.stat(tmp))
                   for tmp in self.target.parent.glob(pattern))

    def fsync(self, fd):
        st = os.fstat(fd)
        if stat.S_ISDIR(st.st_mode):
            if self._renamed and os.path.samestat(
                    st, os.stat(self.target.parent)):
                self._renamed = False
                self._tick("dir-fsync")
        elif self._is_temp(st):
            self._tick("fsync")
        return self._fsync(fd)

    def replace(self, src, dst):
        self._renamed = pathlib.Path(dst) == self.target
        if not self._renamed:
            return self._replace(src, dst)
        self._tick("replace")
        self._replace(src, dst)
        self.renames += 1
        self.commits.append(self.target.read_bytes())

    def write(self, fd, data):
        if not self._is_target(os.fstat(fd)):
            return self._write(fd, data)
        if self.failpoint == "torn-append":
            self.seen += 1
            if self.seen == self.nth:
                self._write(fd, bytes(data)[:len(data) // 2])
                raise Crash("torn-append")
        written = self._write(fd, data)
        self.commits.append(self.target.read_bytes())
        return written


# ----------------------------------------------------------------------
# Boundaries.  Each has a target, a run that writes it repeatedly, and
# a resume that continues after a crash and returns the outcome an
# uninterrupted run must match byte for byte.
# ----------------------------------------------------------------------
class Scripted:
    """A sequence of writes; resume redoes the one that died, then the
    rest, the way a restarted caller would."""

    def __init__(self, name, kind, nth, target, steps, outcome):
        self.name, self.kind, self.nth = name, kind, nth
        self.target, self.steps, self._outcome = target, steps, outcome
        self._done = {}

    def run(self, root, start=0):
        root.mkdir(parents=True, exist_ok=True)
        for i in range(start, len(self.steps)):
            self.steps[i](root)
            self._done[root] = i + 1

    def resume(self, root):
        self.run(root, start=self._done.get(root, 0))
        return self._outcome(root)

    def expected(self, tmp_path):
        self.run(tmp_path / "clean")
        return self.resume(tmp_path / "clean")


class Training:
    """A tiny checkpointed, journaled Trainer run (``fit`` scope)."""

    def __init__(self, name, kind, nth, target):
        self.name, self.kind, self.nth = name, kind, nth
        self.target = target

    def _fit(self, root, resume):
        model, optimizer, batches, step = _problem()
        run = TrainRun(root / "ckpt", root / "journal.jsonl",
                       resume=resume)
        run.trainer("fit", model, optimizer).fit(
            batches, step, epochs=EPOCHS, rng=np.random.default_rng(1))
        return model

    def run(self, root):
        self._fit(root, resume=False)

    def resume(self, root):
        weights = _weights(self._fit(root, resume=True))
        return ({k: v.tobytes() for k, v in weights.items()},
                deterministic_entries(root / "journal.jsonl"))

    expected = Scripted.expected


class Streaming:
    """The drifting stream of ``tests/stream`` through a processor."""

    def __init__(self, name, kind, nth, target):
        self.name, self.kind, self.nth = name, kind, nth
        self.target = target

    def run(self, root, resume=False):
        with _processor(self.archive, root, resume=resume) as proc:
            proc.run_log(self.clean.log)

    def resume(self, root):
        self.run(root, resume=True)
        return (_window_entries(root), _archives(root),
                (root / "records.jsonl").read_bytes())

    def expected(self, tmp_path):
        clean = self.clean
        return clean.windows, clean.archives, clean.records_log


def _write_archive(i):
    return lambda root: save_arrays(
        root / "model.npz", {"w": np.arange(6.0).reshape(2, 3) * i,
                             "b": np.full(3, i, dtype=np.int32)})


def _plant_journal(root):
    """A journal left by a killed trainer: epochs plus a torn line."""
    lines = [json.dumps({"phase": "fit", "epoch": epoch, "loss": 0.5 ** epoch})
             for epoch in range(4)]
    (root / "journal.jsonl").write_text(
        "\n".join(lines) + '\n{"phase": "fit", "epo')


def _reopen(root):
    MetricJournal(root / "journal.jsonl", resume=True)


def _drop(epoch):
    return lambda root: MetricJournal(
        root / "journal.jsonl", resume=True).drop(
            lambda entry: entry.get("epoch") == epoch)


def _put(i):
    return lambda root: RunCache(root / "cache").put(
        "cell", {"metrics": {"f1": float(i)}, "created": 0.0})


def _append(i):
    def step(root):
        offset = EventLog(root / "events.jsonl").append(
            Event(time=float(i), entity=f"u{i % 2}", activity=i))
        offsets = root / "offsets"
        with open(offsets, "a") as fh:
            fh.write(f"{offset}\n")
    return step


def _event_log_outcome(root):
    path = root / "events.jsonl"
    return (path.read_bytes(), (root / "offsets").read_text(),
            [(e.offset, e.time) for e in EventLog(path)])


BOUNDARIES = [
    Training("checkpoint", "durable", 3,
             lambda root: root / "ckpt" / "fit.ckpt.npz"),
    Scripted("archive", "durable", 2, lambda root: root / "model.npz",
             [_write_archive(i) for i in range(3)],
             lambda root: (root / "model.npz").read_bytes()),
    Scripted("journal-compaction", "durable", 2,
             lambda root: root / "journal.jsonl",
             [_plant_journal, _reopen, _drop(3), _drop(1)],
             lambda root: (root / "journal.jsonl").read_bytes()),
    Scripted("run-cache", "fast", 2,
             lambda root: root / "cache" / "cell.json",
             [_put(i) for i in range(3)],
             lambda root: (root / "cache" / "cell.json").read_bytes()),
    Streaming("stream-head", "fast", 5,
              lambda root: root / "checkpoint.json"),
    Scripted("event-log", "log", 3, lambda root: root / "events.jsonl",
             [_append(i) for i in range(5)], _event_log_outcome),
    Training("metric-journal", "log", 3,
             lambda root: root / "journal.jsonl"),
    Streaming("records-log", "log", 5,
              lambda root: root / "records.jsonl"),
]


@pytest.fixture
def boundary(request):
    boundary = request.param
    if isinstance(boundary, Streaming):
        boundary.archive = request.getfixturevalue("stream_archive")
        boundary.clean = request.getfixturevalue("clean")
    return boundary


def _leftover_temps(root):
    return sorted(p.relative_to(root) for p in root.rglob("*.tmp"))


@pytest.mark.parametrize("failpoint", FAILPOINTS)
@pytest.mark.parametrize("boundary", BOUNDARIES, indirect=True,
                         ids=[b.name for b in BOUNDARIES])
def test_crash_matrix(boundary, failpoint, tmp_path, monkeypatch):
    expected = boundary.expected(tmp_path)
    root = tmp_path / "crashed"
    target = boundary.target(root)
    disk = Disk(monkeypatch, target, failpoint, boundary.nth)
    if failpoint not in REACHES[boundary.kind]:
        boundary.run(root)
        assert disk.seen == 0, f"{boundary.name} reached {failpoint}"
    else:
        with pytest.raises(Crash):
            boundary.run(root)
        data = target.read_bytes()
        if failpoint == "torn-append":
            cut = data.rfind(b"\n") + 1
            assert data[:cut] == disk.commits[-1]
            assert data[cut:] and b"\n" not in data[cut:]
        else:
            landed = boundary.nth - (failpoint != "dir-fsync")
            assert disk.renames == landed
            assert data == disk.commits[-1]
        assert _leftover_temps(tmp_path) == []
    monkeypatch.undo()
    assert boundary.resume(root) == expected
    assert _leftover_temps(tmp_path) == []

