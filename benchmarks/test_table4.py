"""Benchmark: regenerate Table IV (ablations, uniform noise η=0.45)."""

import numpy as np

from repro.analysis import render_markdown
from repro.experiments import paper_reference, run_table4


def test_table4_ablation_uniform(run_once, settings, report):
    results = run_once(lambda: run_table4(settings, verbose=True))

    report()
    report("Table IV (measured, η=0.45, reduced scale)")
    for metric, cells in results.items():
        report()
        report(render_markdown(cells, metric,
                               paper=paper_reference.lookup(metric)))

    variants = list(dict.fromkeys(cell.model for cell in results["f1"]))

    def mean_f1(variant):
        return np.mean([cell.mean for cell in results["f1"]
                        if cell.model == variant])

    full = mean_f1("CLFD")
    # Shape: the full framework must beat the majority of its ablations
    # (every ablation in the paper), demonstrating each component helps.
    weaker = [v for v in variants if v != "CLFD" and mean_f1(v) < full]
    assert len(weaker) >= 4, (
        f"full CLFD (F1={full:.1f}) should beat most ablations; "
        f"beaten: {sorted(weaker)}"
    )
