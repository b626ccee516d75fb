"""Tests for the Trainer event loop: journal, snapshots, resume."""

import numpy as np
import pytest

import repro.nn as nn
from repro.train import (
    CheckpointManager,
    MetricJournal,
    TrainingInterrupted,
    TrainRun,
    deterministic_entries,
)

N, DIM, EPOCHS = 64, 4, 6


def _problem(seed=0):
    """A tiny least-squares problem: model, optimizer, closures."""
    data_rng = np.random.default_rng(7)
    x = data_rng.normal(size=(N, DIM))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1

    model = nn.Linear(DIM, 1, np.random.default_rng(seed))
    optimizer = nn.Adam(model.parameters(), lr=0.01)

    def batches(rng):
        order = rng.permutation(N)
        for start in range(0, N, 16):
            yield order[start:start + 16]

    def step(idx):
        pred = model(nn.as_tensor(x[idx]))
        return ((pred - nn.as_tensor(y[idx, None])) ** 2).mean()

    return model, optimizer, batches, step


def _weights(model):
    return {k: np.array(v) for k, v in model.state_dict().items()}


def test_fit_trains_and_returns_history():
    model, optimizer, batches, step = _problem()
    run = TrainRun()  # inert: plain in-memory loop
    history = run.trainer("fit", model, optimizer).fit(
        batches, step, epochs=EPOCHS, rng=np.random.default_rng(1))
    assert len(history) == EPOCHS
    assert history[-1] < history[0]


def test_inert_run_matches_checkpointed_run_bitwise(tmp_path):
    model_a, opt_a, batches_a, step_a = _problem()
    TrainRun().trainer("fit", model_a, opt_a).fit(
        batches_a, step_a, epochs=EPOCHS, rng=np.random.default_rng(1))

    model_b, opt_b, batches_b, step_b = _problem()
    run = TrainRun(tmp_path / "ckpt", tmp_path / "journal.jsonl")
    run.trainer("fit", model_b, opt_b).fit(
        batches_b, step_b, epochs=EPOCHS, rng=np.random.default_rng(1))

    for key, value in _weights(model_a).items():
        np.testing.assert_array_equal(value, _weights(model_b)[key])


def test_step_returning_none_skips_batch(tmp_path):
    model, optimizer, batches, step = _problem()
    stepped, skipped = [], []

    def picky_step(idx):
        if idx[0] % 2:  # arbitrary: skip batches led by an odd index
            skipped.append(idx[0])
            return None
        stepped.append(idx[0])
        return step(idx)

    journal = tmp_path / "journal.jsonl"
    TrainRun(journal=journal).trainer("fit", model, optimizer).fit(
        batches, picky_step, epochs=1, rng=np.random.default_rng(1))
    assert len(stepped) + len(skipped) == N // 16
    # The journal counts only stepped batches.
    (entry,) = deterministic_entries(journal)
    assert entry["batches"] == len(stepped)


def test_journal_records_epochs_and_lr(tmp_path):
    model, optimizer, batches, step = _problem()
    journal = tmp_path / "journal.jsonl"
    run = TrainRun(tmp_path / "ckpt", journal)
    epoch = iter(range(4))

    def decaying_batches(rng):
        # batches(rng) runs once per epoch: halve the lr from epoch 2.
        if next(epoch) == 2:
            optimizer.lr = 0.005
        return batches(rng)

    run.trainer("fit", model, optimizer).fit(
        decaying_batches, step, epochs=4, rng=np.random.default_rng(1))
    entries = deterministic_entries(journal)
    assert [e["epoch"] for e in entries] == [0, 1, 2, 3]
    assert all(e["phase"] == "fit" for e in entries)
    assert all(e["batches"] == N // 16 for e in entries)
    # Each epoch journals the lr it trained with.
    assert [e["lr"] for e in entries] == [0.01, 0.01, 0.005, 0.005]


@pytest.mark.parametrize("stop_epoch", [1, 3])
def test_stop_after_epoch_then_resume_is_bit_identical(tmp_path,
                                                       stop_epoch):
    model_a, opt_a, batches_a, step_a = _problem()
    TrainRun().trainer("fit", model_a, opt_a).fit(
        batches_a, step_a, epochs=EPOCHS, rng=np.random.default_rng(1))

    model_b, opt_b, batches_b, step_b = _problem()
    run = TrainRun(tmp_path / "ckpt", tmp_path / "journal.jsonl",
                   stop_after=f"fit@{stop_epoch}")
    with pytest.raises(TrainingInterrupted) as err:
        run.trainer("fit", model_b, opt_b).fit(
            batches_b, step_b, epochs=EPOCHS, rng=np.random.default_rng(1))
    assert err.value.tag == f"fit@{stop_epoch}"

    # Fresh process simulation: rebuild everything, resume.
    model_c, opt_c, batches_c, step_c = _problem()
    resumed = TrainRun(tmp_path / "ckpt", tmp_path / "journal.jsonl",
                       resume=True)
    history = resumed.trainer("fit", model_c, opt_c).fit(
        batches_c, step_c, epochs=EPOCHS, rng=np.random.default_rng(1))
    assert len(history) == EPOCHS
    for key, value in _weights(model_a).items():
        np.testing.assert_array_equal(value, _weights(model_c)[key])
    # Journal shows every epoch exactly once plus the resume event.
    entries = deterministic_entries(tmp_path / "journal.jsonl")
    assert [e["epoch"] for e in entries] == list(range(EPOCHS))


def test_resume_of_completed_scope_is_a_noop(tmp_path):
    model_a, opt_a, batches_a, step_a = _problem()
    run = TrainRun(tmp_path / "ckpt", tmp_path / "journal.jsonl")
    history_a = run.trainer("fit", model_a, opt_a).fit(
        batches_a, step_a, epochs=EPOCHS, rng=np.random.default_rng(1))

    model_c, opt_c, batches_c, step_c = _problem()
    resumed = TrainRun(tmp_path / "ckpt", tmp_path / "journal.jsonl",
                       resume=True)
    history_c = resumed.trainer("fit", model_c, opt_c).fit(
        batches_c, step_c, epochs=EPOCHS, rng=np.random.default_rng(1))
    assert history_c == history_a
    for key, value in _weights(model_a).items():
        np.testing.assert_array_equal(value, _weights(model_c)[key])


def test_resume_ignores_retired_snapshot_keys(tmp_path):
    """Snapshots from before the scheduler/callback options were removed
    carry ``"scheduler": None`` and ``"callbacks": []``; they resume."""
    model_a, opt_a, batches_a, step_a = _problem()
    TrainRun(journal=tmp_path / "a.jsonl").trainer(
        "fit", model_a, opt_a).fit(
        batches_a, step_a, epochs=EPOCHS, rng=np.random.default_rng(1))

    model_b, opt_b, batches_b, step_b = _problem()
    run = TrainRun(tmp_path / "ckpt", tmp_path / "b.jsonl",
                   stop_after="fit@2")
    with pytest.raises(TrainingInterrupted):
        run.trainer("fit", model_b, opt_b).fit(
            batches_b, step_b, epochs=EPOCHS, rng=np.random.default_rng(1))
    manager = CheckpointManager(tmp_path / "ckpt")
    state = manager.load("fit")
    assert "scheduler" not in state and "callbacks" not in state
    state.update(scheduler=None, callbacks=[])
    manager.save("fit", state)

    model_c, opt_c, batches_c, step_c = _problem()
    resumed = TrainRun(tmp_path / "ckpt", tmp_path / "b.jsonl",
                       resume=True)
    history = resumed.trainer("fit", model_c, opt_c).fit(
        batches_c, step_c, epochs=EPOCHS, rng=np.random.default_rng(1))
    assert len(history) == EPOCHS
    for key, value in _weights(model_a).items():
        np.testing.assert_array_equal(value, _weights(model_c)[key])
    assert (deterministic_entries(tmp_path / "b.jsonl")
            == deterministic_entries(tmp_path / "a.jsonl"))


def test_snapshot_every_skips_intermediate_epochs(tmp_path):
    model, optimizer, batches, step = _problem()
    run = TrainRun(tmp_path / "ckpt", snapshot_every=10)
    mtimes = []

    def watched_batches(rng):
        # Runs once per epoch, before it: sees every earlier epoch's end.
        mtimes.append(run.checkpoints.path("fit").exists())
        return batches(rng)

    run.trainer("fit", model, optimizer).fit(
        watched_batches, step, epochs=EPOCHS, rng=np.random.default_rng(1))
    # No snapshot lands until the final (done) epoch.
    assert mtimes == [False] * EPOCHS
    assert run.checkpoints.tags() == ["fit"]
    assert run.checkpoints.load("fit")["done"] is True


def test_scoped_run_prefixes_tags_and_phases(tmp_path):
    model, optimizer, batches, step = _problem()
    journal = tmp_path / "journal.jsonl"
    run = TrainRun(tmp_path / "ckpt", journal).scoped("corrector/")
    run.trainer("ssl", model, optimizer).fit(
        batches, step, epochs=2, rng=np.random.default_rng(1))
    run.save_phase("labels", {"ok": 1})
    assert run.checkpoints.tags() == ["corrector/labels", "corrector/ssl"]
    phases = {e.get("phase") for e in MetricJournal(journal,
                                                    resume=True).entries()}
    assert phases == {"corrector/ssl", "corrector/labels"}


def test_save_phase_honours_stop_after(tmp_path):
    run = TrainRun(tmp_path / "ckpt", stop_after="vectorizer")
    with pytest.raises(TrainingInterrupted) as err:
        run.save_phase("vectorizer", {"x": np.ones(3)})
    assert err.value.tag == "vectorizer"
    # The checkpoint landed before the interrupt fired.
    assert run.checkpoints.has("vectorizer")


def test_load_phase_requires_resume(tmp_path):
    run = TrainRun(tmp_path / "ckpt")
    run.checkpoints.save("vectorizer", {"x": 1})
    assert run.load_phase("vectorizer") is None
    resumed = TrainRun(tmp_path / "ckpt", resume=True)
    assert resumed.load_phase("vectorizer") == {"x": 1}
    assert resumed.load_phase("missing") is None


def test_profile_attaches_op_breakdown(tmp_path):
    model, optimizer, batches, step = _problem()
    journal = tmp_path / "journal.jsonl"
    run = TrainRun(tmp_path / "ckpt", journal, profile=True)
    run.trainer("fit", model, optimizer).fit(
        batches, step, epochs=1, rng=np.random.default_rng(1))
    entry = MetricJournal(journal, resume=True).entries()[0]
    assert "profile" in entry and len(entry["profile"]) >= 1
    assert all(isinstance(v, float) for v in entry["profile"].values())
