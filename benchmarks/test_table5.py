"""Benchmark: regenerate Table V (ablations, class-dependent noise)."""

import numpy as np

from repro.analysis import render_markdown
from repro.experiments import paper_reference, run_table5


def test_table5_ablation_class_dependent(run_once, settings, report):
    results = run_once(lambda: run_table5(settings, verbose=True))

    report()
    report("Table V (measured, η10=0.3 η01=0.45, reduced scale)")
    for metric, cells in results.items():
        report()
        report(render_markdown(cells, metric,
                               paper=paper_reference.lookup(metric)))

    variants = list(dict.fromkeys(cell.model for cell in results["f1"]))

    def mean_f1(variant):
        return np.mean([cell.mean for cell in results["f1"]
                        if cell.model == variant])

    full = mean_f1("CLFD")
    weaker = [v for v in variants if v != "CLFD" and mean_f1(v) < full]
    assert len(weaker) >= 4, (
        f"full CLFD (F1={full:.1f}) should beat most ablations; "
        f"beaten: {sorted(weaker)}"
    )
