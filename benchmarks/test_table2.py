"""Benchmark: regenerate Table II (class-dependent noise comparison)."""

import numpy as np

from repro.analysis import render_markdown
from repro.experiments import (
    class_dependent_noise,
    paper_reference,
    run_comparison,
)


def test_table2_class_dependent_noise(run_once, settings, report):
    results = run_once(
        lambda: run_comparison(settings, [class_dependent_noise()],
                               verbose=True),
    )

    report()
    report("Table II (measured, η10=0.3 η01=0.45, reduced scale)")
    for metric, cells in results.items():
        report()
        report(render_markdown(cells, metric,
                               paper=paper_reference.lookup(metric)))

    models = list(dict.fromkeys(cell.model for cell in results["f1"]))

    def mean_metric(model, metric):
        return np.mean([cell.mean for cell in results[metric]
                        if cell.model == model])

    # Shape assertions.  On the synthetic benchmarks the baselines do not
    # collapse quite as hard as on the paper's real data (EXPERIMENTS.md
    # discusses this), so the asserted shape is: CLFD ranks best on mean
    # AUC-ROC and within the top 3 on mean F1.
    clfd_auc = mean_metric("CLFD", "auc_roc")
    assert all(mean_metric(m, "auc_roc") <= clfd_auc + 1e-9
               for m in models), "CLFD should have the best mean AUC-ROC"
    f1_rank = sorted(models, key=lambda m: -mean_metric(m, "f1"))
    assert f1_rank.index("CLFD") <= 2, (
        f"CLFD should rank top-3 on mean F1, got rank "
        f"{f1_rank.index('CLFD') + 1} in {f1_rank}"
    )
