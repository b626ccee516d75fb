"""Anomaly detection: pinpointing NaN/inf to the op that made them."""

import numpy as np
import pytest

import repro.nn as nn
from repro.losses import sup_con_loss
from repro.nn import Tensor
from repro.nn.fused import fused_lstm_sequence
from repro.train import MetricJournal, TrainRun


def test_forward_anomaly_names_op_and_traceback():
    x = Tensor(np.array([1.0, 0.0, -1.0]), requires_grad=True)
    with nn.detect_anomaly():
        with pytest.raises(nn.AnomalyError) as info:
            x.log()  # log(0) = -inf, log(-1) = nan
    err = info.value
    assert err.op == "log"
    assert err.phase == "forward"
    # The creation traceback names this test file's call site.
    assert "test_anomaly.py" in err.where
    assert "non-finite output" in str(err)


def test_backward_anomaly_names_op():
    # sqrt(0) is finite forward but its gradient 1/(2*sqrt(0)) is inf.
    x = Tensor(np.array([4.0, 0.0]), requires_grad=True)
    with nn.detect_anomaly(), np.errstate(divide="ignore"):
        out = (x ** 0.5).sum()
        with pytest.raises(nn.AnomalyError) as info:
            out.backward()
    err = info.value
    assert err.phase == "backward"
    assert err.op == "__pow__"
    assert "non-finite gradient" in str(err)


def test_disabled_mode_is_silent():
    assert not nn.is_anomaly_enabled()
    x = Tensor(np.array([-1.0]), requires_grad=True)
    out = x.log()  # nan, but nobody is watching
    assert np.isnan(out.data).all()


def test_context_nests_and_restores():
    with nn.detect_anomaly():
        assert nn.is_anomaly_enabled()
        with nn.detect_anomaly():
            assert nn.is_anomaly_enabled()
        assert nn.is_anomaly_enabled()
    assert not nn.is_anomaly_enabled()


def test_anomaly_pinpoints_nan_in_clfd_style_step():
    """An injected NaN inside a contrastive training step is attributed
    to the first op that touches it, not to the loss value."""
    rng = np.random.default_rng(0)
    n, t, d, h = 6, 4, 5, 4
    x = Tensor(rng.normal(size=(n, t, d)))
    w_x = Tensor(rng.normal(scale=0.4, size=(d, 4 * h)), requires_grad=True)
    w_h = Tensor(rng.normal(scale=0.4, size=(h, 4 * h)), requires_grad=True)
    bias = Tensor(np.zeros(4 * h), requires_grad=True)
    w_proj = Tensor(rng.normal(scale=0.4, size=(h, 3)), requires_grad=True)
    # Poison one projection weight the way an overflowed update would.
    w_proj.data[0, 0] = np.nan
    labels = np.array([0, 1, 0, 1, 0, 1])

    with nn.detect_anomaly():
        _, h_last, _ = fused_lstm_sequence(x, Tensor(np.zeros((n, h))),
                                           Tensor(np.zeros((n, h))),
                                           w_x, w_h, bias)
        with pytest.raises(nn.AnomalyError) as info:
            z = nn.l2_normalize(h_last.matmul(w_proj))
            sup_con_loss(z, labels, temperature=0.5,
                         confidences=np.full(n, 0.9))
    err = info.value
    assert err.op == "matmul"  # first op through the poisoned weight
    assert err.phase == "forward"
    assert "matmul" in str(err)
    assert "test_anomaly.py" in err.where


def test_trainer_journals_anomaly_event(tmp_path):
    """A run with detect_anomaly=True raises AnomalyError and journals it."""
    rng = np.random.default_rng(0)
    model = nn.Linear(3, 1, rng)
    model.weight.data[0, 0] = np.inf  # corrupt a parameter pre-training
    optimizer = nn.Adam(model.parameters(), lr=0.1)
    x = rng.normal(size=(8, 3))

    journal_path = tmp_path / "journal.jsonl"
    run = TrainRun(journal=journal_path, detect_anomaly=True)
    trainer = run.trainer("fit", model, optimizer)
    assert trainer.run.detect_anomaly

    def batches(batch_rng):
        yield np.arange(8)

    def step(idx):
        return (model(nn.as_tensor(x[idx])) ** 2).mean()

    with pytest.raises(nn.AnomalyError):
        trainer.fit(batches, step, epochs=1, rng=np.random.default_rng(1))

    events = [e for e in MetricJournal(journal_path, resume=True).entries()
              if e.get("event") == "anomaly"]
    assert len(events) == 1
    assert events[0]["op"] == "matmul"
    assert events[0]["anomaly_phase"] == "forward"


def test_trainer_without_flag_does_not_intercept():
    rng = np.random.default_rng(0)
    model = nn.Linear(3, 1, rng)
    model.weight.data[0, 0] = np.nan
    optimizer = nn.Adam(model.parameters(), lr=0.1)
    x = rng.normal(size=(4, 3))
    trainer = TrainRun().trainer("fit", model, optimizer)

    def batches(batch_rng):
        yield np.arange(4)

    def step(idx):
        return (model(nn.as_tensor(x[idx])) ** 2).mean()

    # Without anomaly mode the NaN silently propagates to the loss.
    history = trainer.fit(batches, step, epochs=1,
                          rng=np.random.default_rng(1))
    assert np.isnan(history[0])
