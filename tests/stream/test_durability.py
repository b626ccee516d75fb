"""The processor's durable state: a small head over an append-only log.

* a crash between the records-log append and the head replace (the
  journal line of that window batch already written) resumes without
  duplicate journal entries or records;
* a crash inside a re-correction (before its window commits) replays
  that window, re-correction included, from the head — no fine-tune
  snapshots are written or needed;
* torn or junk tails on ``records.jsonl`` / ``journal.jsonl`` are cut
  back to the head's committed lengths on resume;
* every head is the exact text ``json.dumps`` gives for its state,
  after a resume too;
* the head stays bounded — it carries no records or per-entity session
  counters, so its size does not grow with the stream — and a head of
  another format is refused rather than migrated.
"""

import json
import os
import pathlib
import types

import pytest

from repro.core import stage
from repro.stream import StreamProcessor, compare_with_frozen, write_events

from .conftest import SERVE_CONFIG, STREAM_CONFIG, drifting_events


def _processor(archive, workdir, **kwargs):
    return StreamProcessor(archive, workdir, config=STREAM_CONFIG,
                           serve_config=SERVE_CONFIG, **kwargs)


def _window_entries(workdir):
    with open(workdir / "journal.jsonl") as fh:
        entries = [json.loads(line) for line in fh]
    return [e for e in entries if e.get("event") == "window"]


def _archives(workdir):
    return {p.name: p.read_bytes()
            for p in sorted((workdir / "archives").iterdir())}


@pytest.fixture(scope="module")
def clean(stream_archive, tmp_path_factory):
    """One uninterrupted run, fed one event at a time so the head can
    be read after every window batch."""
    root = tmp_path_factory.mktemp("durability")
    log = write_events(root / "events.jsonl", drifting_events())
    workdir = root / "clean"
    with _processor(stream_archive, workdir) as proc:
        heads = _feed(proc, log, 0)
        records = proc.records
    assert any(r["model_generation"] >= 1 for r in records)
    return types.SimpleNamespace(
        log=log, workdir=workdir, records=records,
        windows=_window_entries(workdir), archives=_archives(workdir),
        records_log=(workdir / "records.jsonl").read_bytes(),
        heads=heads, head_sizes=[len(head.encode()) for head in heads])


def _feed(proc, log, offset):
    """Run the log from ``offset`` one event at a time, then finish;
    returns the head text after every commit."""
    head = proc.workdir / "checkpoint.json"
    heads = []
    for event in log.read(offset):
        if proc.process_events([event]):
            heads.append(head.read_text())
    proc.finish()
    heads.append(head.read_text())
    return heads


def _resume_and_compare(stream_archive, clean, workdir):
    with _processor(stream_archive, workdir, resume=True) as proc:
        proc.run_log(clean.log)
        records = proc.records
    assert records == clean.records
    assert _window_entries(workdir) == clean.windows
    assert _archives(workdir) == clean.archives
    assert (workdir / "records.jsonl").read_bytes() == clean.records_log


def test_crash_before_head_replace_leaves_no_duplicates(
        stream_archive, clean, tmp_path, monkeypatch):
    workdir = tmp_path / "crashed"
    head = workdir / "checkpoint.json"
    real_replace = os.replace
    commits = []

    def failpoint(src, dst):
        if pathlib.Path(dst) == head:
            commits.append(dst)
            if len(commits) == 5:
                raise RuntimeError("failpoint: died before the head replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failpoint)
    with pytest.raises(RuntimeError, match="failpoint"):
        with _processor(stream_archive, workdir) as proc:
            proc.run_log(clean.log)
    monkeypatch.undo()

    # The dead batch reached the journal and the records log but not
    # the head: both files run past the committed lengths.
    state = json.loads(head.read_text())
    assert len(_window_entries(workdir)) > state["windows_processed"]
    assert (workdir / "records.jsonl").stat().st_size > state["records_bytes"]
    assert (workdir / "journal.jsonl").stat().st_size > state["journal_bytes"]
    _resume_and_compare(stream_archive, clean, workdir)


def test_crash_inside_recorrection_replays_the_window(
        stream_archive, clean, tmp_path, monkeypatch):
    workdir = tmp_path / "crashed-recorrect"
    real_train = stage.train_classifier_head

    def failpoint(*args, scope, **kwargs):
        if scope == "recorrect-detector":
            raise RuntimeError("failpoint: died inside the detector head")
        return real_train(*args, scope=scope, **kwargs)

    monkeypatch.setattr(stage, "train_classifier_head", failpoint)
    with pytest.raises(RuntimeError, match="failpoint"):
        with _processor(stream_archive, workdir) as proc:
            proc.run_log(clean.log)
    monkeypatch.undo()

    # The corrector head's epochs reached the journal past the head's
    # commit point; the head still serves generation 0 and no archive
    # of the dead generation exists.
    state = json.loads((workdir / "checkpoint.json").read_text())
    assert state["model_generation"] == 0
    assert not any((workdir / "archives").iterdir())
    with open(workdir / "journal.jsonl", "rb") as fh:
        fh.seek(state["journal_bytes"])
        uncommitted = [json.loads(line) for line in fh]
    assert any(e.get("phase") == "gen1/recorrect-head" for e in uncommitted)
    _resume_and_compare(stream_archive, clean, workdir)
    assert not (workdir / "train").exists()
    assert not (clean.workdir / "train").exists()


def test_torn_tails_are_cut_on_resume(stream_archive, clean, tmp_path):
    workdir = tmp_path / "torn"
    with _processor(stream_archive, workdir) as proc:
        proc.run_log(clean.log, max_windows=7, flush=False)
    with open(workdir / "records.jsonl", "ab") as fh:
        fh.write(b'{"records": [{"window": 7, "session_id": "u')
    with open(workdir / "journal.jsonl", "ab") as fh:
        fh.write(b"\x00\xffjunk")
    _resume_and_compare(stream_archive, clean, workdir)


def test_head_is_bounded(clean):
    head = json.loads((clean.workdir / "checkpoint.json").read_text())
    assert head["version"] == 2
    assert "records" not in head
    assert "session_counts" not in head
    assert "session_counts" not in head["windower"]
    assert head["records_bytes"] == len(clean.records_log)
    sizes = clean.head_sizes
    assert len(sizes) >= 9
    assert sizes[-1] <= 2 * sizes[len(sizes) // 3], sizes


def _comparable(head: str, workdir: pathlib.Path) -> dict:
    """A head's state minus what differs between two equal runs: the
    journal length (epoch lines carry wall-clock times) and the
    workdir the archive path sits in."""
    state = json.loads(head)
    del state["journal_bytes"]
    state["archive"] = state["archive"].replace(str(workdir), "<workdir>")
    return state


def test_heads_are_the_bytes_json_dumps_gives(clean):
    for head in clean.heads:
        state = json.loads(head)
        assert json.dumps(state) == head
        assert list(state)[-1] == "recent"
    assert any(json.loads(head)["recent"] for head in clean.heads)


def test_heads_after_resume_match_the_clean_run(stream_archive, clean,
                                                tmp_path):
    workdir = tmp_path / "resumed"
    with _processor(stream_archive, workdir) as proc:
        proc.run_log(clean.log, max_windows=7, flush=False)
    heads = [(workdir / "checkpoint.json").read_text()]
    with _processor(stream_archive, workdir, resume=True) as proc:
        heads += _feed(proc, clean.log, proc.next_offset)
    for head in heads:
        assert json.dumps(json.loads(head)) == head
    # The first heads after the resume carry recent windows rebuilt
    # from the loaded head, not encoded by this process.
    assert ([_comparable(h, workdir) for h in heads]
            == [_comparable(h, clean.workdir)
                for h in clean.heads[-len(heads):]])


def test_head_of_another_version_is_refused(stream_archive, clean,
                                            tmp_path):
    head = json.loads((clean.workdir / "checkpoint.json").read_text())
    del head["version"]
    workdir = tmp_path / "legacy"
    workdir.mkdir()
    (workdir / "checkpoint.json").write_text(json.dumps(head))
    with pytest.raises(ValueError,
                       match=r"checkpoint\.json.*restart the stream"):
        _processor(stream_archive, workdir, resume=True)


def test_compare_with_frozen_beyond_max_queue(stream_archive, clean):
    post = [r for r in clean.records if r["model_generation"] >= 1]
    assert len(post) > 8
    bounded = compare_with_frozen(clean.records, stream_archive,
                                  SERVE_CONFIG.replace(max_queue=8))
    assert bounded == compare_with_frozen(clean.records, stream_archive,
                                          SERVE_CONFIG)
    assert bounded["n_sessions"] == len(post)
