"""Tests for the experiment harness (small-scale smoke runs)."""

import numpy as np
import pytest

from repro.analysis import SweepCell, render_markdown
from repro.experiments import (
    ABLATIONS,
    ExperimentSettings,
    NoiseSpec,
    class_dependent_noise,
    run_ablation,
    run_comparison,
    run_latency,
    run_table3,
    uniform_noise,
)
from repro.baselines import BaselineConfig
from repro.core import CLFDConfig
from repro.data import Word2VecConfig, make_dataset


class TinySettings(ExperimentSettings):
    """Settings small enough for unit tests."""

    def __init__(self):
        super().__init__(scale=0.02, seeds=1, etas=(0.2,))

    def clfd_config(self):
        return CLFDConfig(
            embedding_dim=12, hidden_size=16, batch_size=32,
            aux_batch_size=8, ssl_epochs=1, supcon_epochs=2,
            classifier_epochs=20, word2vec=Word2VecConfig(dim=12, epochs=1),
        )

    def baseline_config(self):
        return BaselineConfig(embedding_dim=12, hidden_size=16, epochs=2,
                              batch_size=32,
                              word2vec=Word2VecConfig(dim=12, epochs=1))


@pytest.fixture(scope="module")
def settings():
    return TinySettings()


def test_noise_specs_apply():
    rng = np.random.default_rng(0)
    train, _ = make_dataset("cert", rng, scale=0.02)
    uniform_noise(0.4)(train, rng)
    assert (train.labels() != train.noisy_labels()).any()
    train2, _ = make_dataset("cert", rng, scale=0.02)
    class_dependent_noise()(train2, rng)
    assert (train2.labels() != train2.noisy_labels()).any()


def test_noise_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="salt-and-pepper"):
        NoiseSpec("salt-and-pepper", (0.1,))


def test_run_comparison_structure(settings):
    results = run_comparison(settings, [uniform_noise(0.2)],
                             models=["CLFD", "DeepLog"],
                             datasets=("cert",))
    assert set(results) == {"f1", "fpr", "auc_roc"}
    for cells in results.values():
        assert all(isinstance(cell, SweepCell) for cell in cells)
        assert [(c.model, c.dataset, c.noise, c.seeds) for c in cells] == [
            ("CLFD", "cert", "eta=0.2", [0]),
            ("DeepLog", "cert", "eta=0.2", [0])]
    text = render_markdown(results["f1"], "f1")
    assert "| CLFD | eta=0.2 |" in text and "cert (f1, mean±std)" in text


def test_run_comparison_rejects_unknown_model(settings):
    with pytest.raises(KeyError):
        run_comparison(settings, [uniform_noise(0.2)], models=["GPT"],
                       datasets=("cert",))


def test_run_table3_structure(settings):
    results = run_table3(settings)
    assert set(results) == {"tpr", "tnr"}
    for cells in results.values():
        assert [(c.model, c.dataset) for c in cells] == [
            ("CLFD", dataset) for dataset in
            ("cert", "cert", "umd-wikipedia", "umd-wikipedia",
             "openstack", "openstack")]
        assert all(0 <= cell.mean <= 100 for cell in cells)


def test_run_ablation_covers_variants(settings):
    results = run_ablation(uniform_noise(0.2), settings,
                           variants=["CLFD", "w/o FD"], datasets=("cert",))
    assert [cell.model for cell in results["f1"]] == ["CLFD", "w/o FD"]
    text = render_markdown(results["f1"], "f1")
    assert "| w/o FD | eta=0.2 |" in text


def test_ablation_registry_matches_paper_rows():
    assert set(ABLATIONS) == {
        "CLFD", "w/o LC", "w/o mixup-GCE", "w/o GCE loss",
        "w/o FD", "w/o L_Sup", "w/o classifier (FD)",
    }


def test_run_latency_positive(settings):
    latencies = run_latency(settings, models=["CLFD", "DeepLog"])
    assert set(latencies) == {"CLFD", "DeepLog"}
    assert all(v > 0 for v in latencies.values())


def test_settings_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    monkeypatch.setenv("REPRO_SEEDS", "7")
    monkeypatch.setenv("REPRO_ETAS", "0.1,0.3")
    settings = ExperimentSettings.from_env()
    assert settings.scale == 0.5
    assert settings.seeds == 7
    assert settings.etas == (0.1, 0.3)


def test_paper_reference_consistency():
    from repro.experiments import paper_reference as ref

    # CLFD must dominate every baseline in the paper's own Table I/II.
    for dataset in ("cert", "umd-wikipedia", "openstack"):
        for eta in (0.1, 0.45):
            clfd = ref.TABLE1_F1["CLFD"][dataset][eta]
            for model, per_ds in ref.TABLE1_F1.items():
                if model != "CLFD":
                    assert per_ds[dataset][eta] < clfd
        clfd2 = ref.TABLE2_F1["CLFD"][dataset]
        for model, per_ds in ref.TABLE2_F1.items():
            if model != "CLFD":
                assert per_ds[dataset] < clfd2


# ----------------------------------------------------------------------
# Parallel execution and the run cache
# ----------------------------------------------------------------------
def test_run_comparison_parallel_is_bit_identical(settings):
    """workers=2 must reproduce the sequential tables exactly."""
    kwargs = dict(models=["DeepLog", "LogBert"], datasets=("cert",))
    sequential = run_comparison(settings, [uniform_noise(0.2)], **kwargs)
    parallel = run_comparison(settings, [uniform_noise(0.2)], workers=2,
                              **kwargs)
    # SweepCell equality is bitwise, NaN equal to NaN.
    assert parallel == sequential


def test_run_comparison_resumes_from_cache(settings, tmp_path, monkeypatch):
    from repro.parallel import executor as executor_mod

    kwargs = dict(models=["DeepLog"], datasets=("cert",),
                  cache=str(tmp_path / "cache"))
    cold = run_comparison(settings, [uniform_noise(0.2)], **kwargs)
    # Any recomputation after the cold sweep is a cache failure.
    monkeypatch.setattr(
        executor_mod, "execute_task",
        lambda spec, attempt=0, checkpoint_dir=None:
        pytest.fail("cache miss: recomputed a cell"))
    warm = run_comparison(settings, [uniform_noise(0.2)], **kwargs)
    assert warm == cold


def test_run_table3_parallel_is_bit_identical(settings):
    assert run_table3(settings, workers=2) == run_table3(settings)


def test_run_ablation_parallel_is_bit_identical(settings):
    kwargs = dict(variants=["CLFD", "w/o FD"], datasets=("cert",))
    assert (run_ablation(uniform_noise(0.2), settings, workers=2, **kwargs)
            == run_ablation(uniform_noise(0.2), settings, **kwargs))


def test_integer_noise_rate_keys_match_analysis_labels(settings, tmp_path):
    """uniform_noise(0) keys results by the label `repro analyze` gives
    the same cells when it reads them back from the run cache."""
    from repro.analysis.tables import load_sweep_records, noise_label

    cache = str(tmp_path / "cache")
    results = run_comparison(settings, [uniform_noise(0)],
                             models=["DeepLog"], datasets=("cert",),
                             cache=cache)
    records = load_sweep_records(cache)
    assert records
    assert {noise_label(r["noise"]) for r in records} == \
        {cell.noise for cell in results["f1"]}


def test_failed_cells_raise_sweep_error_after_completion(settings,
                                                        monkeypatch):
    from repro.experiments import SweepError
    from repro.parallel import executor as executor_mod

    real = executor_mod.execute_task
    calls = []

    def flaky(spec, attempt=0, checkpoint_dir=None):
        calls.append(spec.dataset)
        if spec.dataset == "cert":
            raise RuntimeError("injected")
        return real(spec, attempt, checkpoint_dir)

    monkeypatch.setattr(executor_mod, "execute_task", flaky)
    with pytest.raises(SweepError) as excinfo:
        run_comparison(settings, [uniform_noise(0.2)], models=["DeepLog"],
                       datasets=("cert", "openstack"), retries=0)
    assert len(excinfo.value.failures) == 1
    # The healthy cell still ran: the sweep completed before raising.
    assert "openstack" in calls
