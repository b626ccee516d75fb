"""Sweep analysis: cache loading, aggregation, significance, rendering."""

import math
import random

import numpy as np
import pytest

from repro.analysis import (
    analyze_cache,
    cross_seed_table,
    load_sweep_records,
    render_latex,
    render_markdown,
    render_significance_latex,
    render_significance_markdown,
    significance_report,
)
from repro.analysis.tables import noise_label
from repro.parallel import RunCache


def record(model, dataset, seed, f1, noise=("uniform", [0.1]),
           measure="test_metrics"):
    return {"model": model, "estimator": model.lower(), "dataset": dataset,
            "noise": list(noise), "seed": seed, "scale": 0.1,
            "measure": measure, "metrics": {"f1": f1, "auc_roc": f1 + 1.0},
            "seconds": 0.5}


def grid(models_to_f1s, datasets=("cert",)):
    """records for each model x dataset x seed from per-seed f1 lists."""
    records = []
    for model, f1s in models_to_f1s.items():
        for dataset in datasets:
            for seed, f1 in enumerate(f1s):
                records.append(record(model, dataset, seed, f1))
    return records


def test_noise_label_matches_runner_labels():
    assert noise_label(["uniform", [0.45]]) == "eta=0.45"
    assert noise_label(["class-dependent", [0.3, 0.45]]) == \
        "eta10=0.3,eta01=0.45"
    assert noise_label(["clean", []]) == "clean"


def test_cross_seed_aggregation():
    cells = cross_seed_table(grid({"CLFD": [80.0, 82.0, 84.0]}))
    assert len(cells) == 1
    cell = cells[0]
    assert (cell.model, cell.dataset, cell.noise) == \
        ("CLFD", "cert", "eta=0.1")
    assert cell.seeds == [0, 1, 2]
    assert cell.mean == pytest.approx(82.0)
    assert cell.std == pytest.approx(np.std([80.0, 82.0, 84.0]))
    assert cell.format() == "82.00±1.63"
    # Cells keep the records' first-seen order, not a sorted one.
    order = cross_seed_table(grid({"w/o FD": [70.0], "CLFD": [80.0]}))
    assert [c.model for c in order] == ["w/o FD", "CLFD"]


def test_sweep_cells_compare_nan_equal():
    """Two cells from identical records are equal even with a NaN value
    (each NaN a distinct float object, as JSON or pickle yields them)."""
    def cells():
        return cross_seed_table(grid({"CLFD": [80.0, float("nan")]}))

    assert cells() == cells()
    assert cells() != cross_seed_table(grid({"CLFD": [80.0, 81.0]}))


def test_identical_duplicate_records_collapse():
    records = grid({"CLFD": [80.0]}) * 2  # same key written twice
    cells = cross_seed_table(records)
    assert cells[0].n == 1


def test_conflicting_duplicates_raise():
    records = grid({"CLFD": [80.0]}) + grid({"CLFD": [81.0]})
    with pytest.raises(ValueError, match="conflicting records"):
        cross_seed_table(records)


def test_significance_report_pairs_on_dataset_noise_seed():
    records = grid({"CLFD": [85.0, 86.0, 87.0],
                    "DeepLog": [80.0, 81.0, 82.0],
                    "LogBert": [84.9, 86.1, 86.9]},
                   datasets=("cert", "openstack"))
    rows = significance_report(records, metric="f1", target="CLFD")
    assert [r.baseline for r in rows] == ["DeepLog", "LogBert"]
    deeplog = rows[0]
    assert deeplog.t.n == 6  # 2 datasets x 3 seeds
    assert deeplog.t.mean_difference == pytest.approx(5.0)
    assert deeplog.t.adjusted_pvalue is not None
    assert deeplog.wilcoxon.adjusted_pvalue is not None
    # Holm never lowers a p-value.
    for row in rows:
        for test in (row.t, row.wilcoxon):
            if not math.isnan(test.pvalue):
                assert test.adjusted_pvalue >= test.pvalue - 1e-15
    # A constant +5 gap is as significant as 6 pairs allow; the near-tie
    # baseline is not.
    assert deeplog.significant(alpha=0.05) or deeplog.t.pvalue < 0.05
    assert not rows[1].significant(alpha=0.01)


def test_significance_report_requires_target():
    with pytest.raises(ValueError, match="no records for target"):
        significance_report(grid({"DeepLog": [80.0, 81.0]}), target="CLFD")


def test_markdown_rendering_has_mean_std_cells():
    records = grid({"CLFD": [85.0, 86.0], "DeepLog": [80.0, 81.0]},
                   datasets=("cert", "openstack"))
    text = render_markdown(cross_seed_table(records))
    assert "| Model | Noise |" in text
    assert "cert (f1, mean±std)" in text
    assert "85.50±0.50 (n=2)" in text
    rows = significance_report(records, target="CLFD")
    sig = render_significance_markdown(rows, target="CLFD")
    assert "| CLFD vs |" in sig and "Holm" in sig
    assert "| DeepLog |" in sig


def test_markdown_paper_column_follows_each_dataset():
    records = grid({"CLFD": [85.0, 86.0], "DeepLog": [80.0, 81.0]},
                   datasets=("cert", "openstack"))
    paper = {("CLFD", "cert", "eta=0.1"): 77.93,
             ("CLFD", "openstack", "eta=0.1"): 64.54,
             ("DeepLog", "cert", "eta=0.1"): 46.07}
    text = render_markdown(cross_seed_table(records), "f1", paper=paper)
    lines = text.splitlines()
    assert lines[0] == ("| Model | Noise | cert (f1, mean±std) "
                        "| cert (paper) | openstack (f1, mean±std) "
                        "| openstack (paper) |")
    assert lines[1] == "|" + "---|" * 6
    assert lines[2] == ("| CLFD | eta=0.1 | 85.50±0.50 (n=2) | 77.93 "
                        "| 85.50±0.50 (n=2) | 64.54 |")
    # The paper reports no DeepLog value on openstack.
    assert lines[3] == ("| DeepLog | eta=0.1 | 80.50±0.50 (n=2) | 46.07 "
                        "| 80.50±0.50 (n=2) | — |")


def test_latex_rendering_escapes_and_bolds():
    records = grid({"CLFD": [85.0, 86.0, 87.0],
                    "w/o L_Sup": [70.0, 71.0, 72.0]})
    text = render_latex(cross_seed_table(records, metric="auc_roc"),
                        metric="auc_roc", caption="cap", label="tab:x")
    assert "\\begin{tabular}{llc}" in text
    assert "w/o L\\_Sup" in text  # underscore escaped
    assert "cert (auc\\_roc)" in text
    assert "$87.00 \\pm 0.82$" in text  # auc_roc = f1 + 1 in fixtures
    sig = render_significance_latex(
        significance_report(records, target="CLFD"), target="CLFD")
    assert "\\toprule" in sig and "w/o L\\_Sup" in sig


def test_analyze_cache_end_to_end(tmp_path):
    cache = RunCache(tmp_path / "cache")
    for i, rec in enumerate(grid({"CLFD": [85.0, 86.0, 87.0],
                                  "DeepLog": [80.0, 81.0, 82.0]})):
        cache.put(f"k{i}", rec)
    # A torn record and an off-measure record must both be ignored.
    (cache.root / "torn.json").write_text('{"metrics": {"f1"')
    cache.put("rates", record("CLFD", "cert", 9, 50.0,
                              measure="correction_rates"))

    out = analyze_cache(cache, metric="f1", target="CLFD", fmt="both")
    assert "Cross-seed aggregation (f1)" in out
    assert "86.00±0.82 (n=3)" in out          # CLFD aggregate
    assert "Significance vs CLFD" in out
    assert "p (t, Holm)" in out                # markdown significance cols
    assert "\\begin{tabular}" in out           # latex section rendered
    assert "$p_t^{\\mathrm{Holm}}$" in out
    assert "seed 9" not in out                 # correction_rates excluded

    rates_only = analyze_cache(cache, metric="f1",
                               measure="correction_rates")
    assert "(n=1)" in rates_only
    assert "Significance" not in rates_only    # single model: no tests


def _golden_records():
    """3 models x 2 datasets x 2 noises x 3 seeds, distinct f1 per cell."""
    records = []
    for m, model in enumerate(("CLFD", "DeepLog", "LogBert")):
        for d, dataset in enumerate(("openstack", "cert")):
            for noise in (["uniform", [0.45]],
                          ["class-dependent", [0.3, 0.45]]):
                for seed in range(3):
                    f1 = (80.0 - 7.5 * m - 2.0 * d - len(noise[1])
                          + 0.25 * seed * (m + 1))
                    records.append({
                        "model": model, "estimator": model.lower(),
                        "dataset": dataset, "noise": noise, "seed": seed,
                        "scale": 0.1, "measure": "test_metrics",
                        "metrics": {"f1": f1, "auc_roc": f1 + 1.0},
                        "seconds": 0.5})
    return records


GOLDEN_ANALYZE_MARKDOWN = """\
### Cross-seed aggregation (f1)

| Model | Noise | cert (f1, mean±std) | openstack (f1, mean±std) |
|---|---|---|---|
| CLFD | eta10=0.3,eta01=0.45 | 76.25±0.20 (n=3) | 78.25±0.20 (n=3) |
| CLFD | eta=0.45 | 77.25±0.20 (n=3) | 79.25±0.20 (n=3) |
| DeepLog | eta10=0.3,eta01=0.45 | 69.00±0.41 (n=3) | 71.00±0.41 (n=3) |
| DeepLog | eta=0.45 | 70.00±0.41 (n=3) | 72.00±0.41 (n=3) |
| LogBert | eta10=0.3,eta01=0.45 | 61.75±0.61 (n=3) | 63.75±0.61 (n=3) |
| LogBert | eta=0.45 | 62.75±0.61 (n=3) | 64.75±0.61 (n=3) |

### Significance vs CLFD (2 baselines)

| CLFD vs | n | Δmean | t | p (t) | p (t, Holm) | W | p (W) \
| p (W, Holm) | sig. (α=0.05) |
|---|---|---|---|---|---|---|---|---|---|
| DeepLog | 12 | +7.250 | 117.799 | 2.1e-18 | 4.1e-18 | 0.0 | 0.0005 \
| 0.0010 | **yes** |
| LogBert | 12 | +14.500 | 117.799 | 2.1e-18 | 4.1e-18 | 0.0 | 0.0005 \
| 0.0010 | **yes** |"""


def test_analyze_cache_markdown_is_pinned(tmp_path):
    """The rendered tables do not depend on the order records reach the
    cache (the file order of their content keys)."""
    records = _golden_records()
    random.Random(0).shuffle(records)
    cache = RunCache(tmp_path / "cache")
    for i, rec in enumerate(records):
        cache.put(f"k{i}", rec)
    assert analyze_cache(cache, metric="f1", target="CLFD") == \
        GOLDEN_ANALYZE_MARKDOWN


def test_analyze_cache_rejects_unknown_metric(tmp_path):
    cache = RunCache(tmp_path / "cache")
    for i, rec in enumerate(grid({"CLFD": [85.0, 86.0]})):
        cache.put(f"k{i}", rec)
    with pytest.raises(ValueError, match=r"'fl'.*\['auc_roc', 'f1'\]"):
        analyze_cache(cache, metric="fl")


def test_analyze_cache_rejects_unknown_target(tmp_path):
    cache = RunCache(tmp_path / "cache")
    for i, rec in enumerate(grid({"CLFD": [85.0, 86.0],
                                  "DeepLog": [80.0, 81.0]})):
        cache.put(f"k{i}", rec)
    with pytest.raises(ValueError, match=r"'CLDF'.*\['CLFD', 'DeepLog'\]"):
        analyze_cache(cache, target="CLDF")
    # A single-model cache still renders its aggregate table alone.
    single = RunCache(tmp_path / "single")
    for i, rec in enumerate(grid({"DeepLog": [80.0, 81.0]})):
        single.put(f"k{i}", rec)
    out = analyze_cache(single, target="CLDF")
    assert "| DeepLog | eta=0.1 | 80.50±0.50 (n=2) |" in out
    assert "Significance" not in out


def test_analyze_cache_empty_dir_raises(tmp_path):
    with pytest.raises(ValueError, match="no completed"):
        analyze_cache(tmp_path / "empty")


def test_load_sweep_records_skips_corrupt(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cache.put("good", record("CLFD", "cert", 0, 80.0))
    (cache.root / "bad.json").write_text("not json")
    records = load_sweep_records(cache)
    assert len(records) == 1
    assert records[0]["model"] == "CLFD"
