"""Kill-and-resume drills for the full models.

The acceptance criterion for the training runtime: interrupt a fit at
any phase boundary or epoch snapshot, resume in a fresh process, and
the final parameters, predictions and journal are **bit-identical** to
an uninterrupted run with the same seed.  ``stop_after`` raises
:class:`TrainingInterrupted` at exactly the point a SIGKILL drill would
die (right after the snapshot lands), so these tests cover the same
contract deterministically; the CI resume-smoke job adds a real
SIGKILL on top.
"""

import numpy as np
import pytest

from repro.baselines import (BaselineConfig, CLDetModel, CTRRModel,
                             DeepLogModel, FewShotModel, SelCLModel)
from repro.core import CLFD, CoTeachingCLFD, model_fingerprint
from repro.data import Word2VecConfig
from repro.train import TrainingInterrupted, TrainRun, deterministic_entries


def _fit_clean(factory, tiny_data, seed=5):
    model = factory()
    model.fit(tiny_data[0], rng=np.random.default_rng(seed))
    return model


def _fit_interrupted_then_resume(factory, tiny_data, tmp_path, stop_after,
                                 seed=5):
    journal = tmp_path / "journal.jsonl"
    run = TrainRun(tmp_path / "ckpt", journal, stop_after=stop_after)
    with pytest.raises(TrainingInterrupted) as err:
        factory().fit(tiny_data[0], rng=np.random.default_rng(seed),
                      run=run)
    assert err.value.tag == stop_after.split("@")[0] or \
        err.value.tag == stop_after

    # Fresh model + fresh rng, exactly like a restarted process.
    resumed = TrainRun(tmp_path / "ckpt", journal, resume=True)
    model = factory()
    model.fit(tiny_data[0], rng=np.random.default_rng(seed), run=resumed)
    return model, journal


@pytest.fixture(scope="module")
def clean_clfd(tiny_config, tiny_data):
    model = _fit_clean(lambda: CLFD(tiny_config), tiny_data)
    return model, model_fingerprint(model)


# One stop point per phase family: a non-loop phase checkpoint, a
# mid-loop epoch snapshot, a completed composite phase, and the final
# phase boundary.
CLFD_STOPS = ["vectorizer", "corrector/ssl@1", "corrector",
              "detector/supcon@1", "detector"]


@pytest.mark.parametrize("stop_after", CLFD_STOPS)
def test_clfd_resume_bit_identical(tiny_config, tiny_data, tmp_path,
                                   clean_clfd, stop_after):
    clean_model, clean_print = clean_clfd
    model, _ = _fit_interrupted_then_resume(
        lambda: CLFD(tiny_config), tiny_data, tmp_path, stop_after)
    assert model_fingerprint(model) == clean_print
    np.testing.assert_array_equal(model.predict_proba(tiny_data[1]),
                                  clean_model.predict_proba(tiny_data[1]))


def test_clfd_resume_journal_matches_uninterrupted(tiny_config, tiny_data,
                                                   tmp_path):
    # Deterministic journal view (phase/epoch/loss/grad_norm/lr/batches)
    # must be identical between a straight-through run and an
    # interrupted-then-resumed run.
    straight = tmp_path / "straight"
    run = TrainRun(straight / "ckpt", straight / "journal.jsonl")
    CLFD(tiny_config).fit(tiny_data[0], rng=np.random.default_rng(5),
                          run=run)

    drilled = tmp_path / "drilled"
    _, journal = _fit_interrupted_then_resume(
        lambda: CLFD(tiny_config), tiny_data, drilled,
        "corrector/head@3")
    assert deterministic_entries(journal) == \
        deterministic_entries(straight / "journal.jsonl")


def test_clfd_second_resume_after_completion_is_stable(tiny_config,
                                                       tiny_data, tmp_path,
                                                       clean_clfd):
    _, clean_print = clean_clfd
    model, journal = _fit_interrupted_then_resume(
        lambda: CLFD(tiny_config), tiny_data, tmp_path, "corrector")
    # Resuming an already-finished run recomputes nothing new and lands
    # on the same fingerprint again.
    rerun = TrainRun(tmp_path / "ckpt", journal, resume=True)
    model2 = CLFD(tiny_config)
    model2.fit(tiny_data[0], rng=np.random.default_rng(5), run=rerun)
    assert model_fingerprint(model2) == model_fingerprint(model) == \
        clean_print


def test_co_teaching_resume_bit_identical(tiny_config, tiny_data,
                                          tmp_path):
    clean = _fit_clean(lambda: CoTeachingCLFD(tiny_config), tiny_data)
    model, _ = _fit_interrupted_then_resume(
        lambda: CoTeachingCLFD(tiny_config), tiny_data, tmp_path,
        "coteach")
    assert model_fingerprint(model) == model_fingerprint(clean)
    np.testing.assert_array_equal(model.predict_proba(tiny_data[1]),
                                  clean.predict_proba(tiny_data[1]))


def test_co_teaching_mid_corrector_resume(tiny_config, tiny_data,
                                          tmp_path):
    clean = _fit_clean(lambda: CoTeachingCLFD(tiny_config), tiny_data)
    model, _ = _fit_interrupted_then_resume(
        lambda: CoTeachingCLFD(tiny_config), tiny_data, tmp_path,
        "coteach/1/ssl@1")
    assert model_fingerprint(model) == model_fingerprint(clean)


# Every baseline loop that runs through the Trainer, one stop point per
# scope: DeepLog's language model, CTRR's joint loss, Few-Shot's
# classifier, Sel-CL's warm-up, sup-con and head, CLDet's corrector.
BASELINE_STOPS = [
    (DeepLogModel, {}, "lm@1"),
    (CTRRModel, {}, "joint@1"),
    (FewShotModel, {}, "classifier@1"),
    (SelCLModel, {"ssl_epochs": 2, "supcon_epochs": 2,
                  "classifier_epochs": 3}, "ssl@1"),
    (SelCLModel, {"ssl_epochs": 2, "supcon_epochs": 2,
                  "classifier_epochs": 3}, "supcon@1"),
    (SelCLModel, {"ssl_epochs": 2, "supcon_epochs": 2,
                  "classifier_epochs": 3}, "head@1"),
    (CLDetModel, {"ssl_epochs": 2, "classifier_epochs": 3}, "ssl@1"),
    (CLDetModel, {"ssl_epochs": 2, "classifier_epochs": 3}, "head@1"),
]


@pytest.mark.parametrize(
    "cls,kwargs,stop_after", BASELINE_STOPS,
    ids=[f"{cls.name}-{stop}" for cls, _, stop in BASELINE_STOPS])
def test_baseline_resume_bit_identical(tiny_data, tmp_path, cls, kwargs,
                                       stop_after):
    config = BaselineConfig(embedding_dim=8, hidden_size=12,
                            lstm_layers=1, epochs=3, batch_size=32,
                            word2vec=Word2VecConfig(dim=8, epochs=1))
    factory = lambda: cls(config, **kwargs)
    clean = _fit_clean(factory, tiny_data)
    model, _ = _fit_interrupted_then_resume(
        factory, tiny_data, tmp_path, stop_after)
    np.testing.assert_array_equal(model.predict_proba(tiny_data[1]),
                                  clean.predict_proba(tiny_data[1]))
    np.testing.assert_array_equal(model.predict(tiny_data[1]),
                                  clean.predict(tiny_data[1]))
