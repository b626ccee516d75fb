"""Tests for the experiment harness (small-scale smoke runs)."""

import numpy as np
import pytest

from repro.experiments import (
    ABLATIONS,
    ExperimentSettings,
    NoiseSpec,
    class_dependent_noise,
    format_ablation_table,
    format_comparison_table,
    run_ablation,
    run_comparison,
    run_latency,
    run_table3,
    uniform_noise,
)
from repro.baselines import BaselineConfig
from repro.core import CLFDConfig
from repro.data import Word2VecConfig, make_dataset
from repro.metrics import MetricSummary


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
    assert set(results) == {"CLFD", "DeepLog"}
    cell = results["CLFD"]["cert"]["eta=0.2"]
    assert isinstance(cell["f1"], MetricSummary)
    text = format_comparison_table(results, "Table I (tiny)")
    assert "CLFD" in text and "cert" in text


def test_run_comparison_rejects_unknown_model(settings):
    with pytest.raises(KeyError):
        run_comparison(settings, [uniform_noise(0.2)], models=["GPT"],
                       datasets=("cert",))


def test_run_table3_structure(settings):
    results = run_table3(settings)
    assert set(results) == {"cert", "umd-wikipedia", "openstack"}
    for per_noise in results.values():
        for cell in per_noise.values():
            assert 0 <= cell["tpr"].mean <= 100
            assert 0 <= cell["tnr"].mean <= 100


def test_run_ablation_covers_variants(settings):
    results = run_ablation(uniform_noise(0.2), settings,
                           variants=["CLFD", "w/o FD"], datasets=("cert",))
    assert set(results) == {"CLFD", "w/o FD"}
    text = format_ablation_table(results, "Table IV (tiny)")
    assert "w/o FD" in text


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


def test_markdown_report_generation(settings):
    """Markdown renderers produce valid tables from runner output."""
    from repro.experiments import (
        ablation_markdown,
        comparison_markdown,
        latency_markdown,
        table3_markdown,
        paper_reference,
    )

    results = run_comparison(settings, [uniform_noise(0.2)],
                             models=["CLFD", "DeepLog"], datasets=("cert",))
    md = comparison_markdown(results, paper_f1=None, title="Tiny")
    assert "### Tiny" in md and "| CLFD |" in md

    md_ref = comparison_markdown(
        results,
        paper_f1={m: {"cert": {0.2: 50.0}} for m in ("CLFD", "DeepLog")},
    )
    assert "50.0" in md_ref

    ab = run_ablation(uniform_noise(0.2), settings, variants=["CLFD"],
                      datasets=("cert",))
    md_ab = ablation_markdown(ab, paper_f1={"CLFD": {"cert": 62.8}})
    assert "62.8" in md_ab

    t3 = run_table3(settings)
    md_t3 = table3_markdown(t3, title="T3")
    assert "paper TPR" in md_t3
    assert "cert" in md_t3

    md_lat = latency_markdown({"CLFD": 10.0, "DeepLog": 2.0})
    assert "5.0x" in md_lat


# ----------------------------------------------------------------------
# Parallel execution and the run cache
# ----------------------------------------------------------------------
def test_run_comparison_parallel_is_bit_identical(settings):
    """workers=2 must reproduce the sequential tables exactly."""
    kwargs = dict(models=["DeepLog", "LogBert"], datasets=("cert",))
    sequential = run_comparison(settings, [uniform_noise(0.2)], **kwargs)
    parallel = run_comparison(settings, [uniform_noise(0.2)], workers=2,
                              **kwargs)
    # MetricSummary is a frozen dataclass of floats -> exact equality.
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
        set(results["DeepLog"]["cert"])


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
