"""Benchmark: regenerate Table III (label-corrector TPR/TNR)."""

import numpy as np

from repro.analysis import render_markdown
from repro.experiments import paper_reference, run_table3


def test_table3_label_corrector(run_once, settings, report):
    results = run_once(lambda: run_table3(settings, verbose=True))

    report()
    report("Table III (measured, reduced scale) vs paper")
    for metric, cells in results.items():
        report()
        report(render_markdown(cells, metric,
                               paper=paper_reference.lookup(metric)))

    # Shape: the corrector must denoise — per cell it must beat the raw
    # noise floor (the noisy labels' TNR is 55 at η/η₀₁ = 0.45) and on
    # average it must clear it decisively.
    for cell in results["tnr"]:
        assert cell.mean > 55.0, (cell.dataset, cell.noise)
    assert float(np.mean([cell.mean for cell in results["tnr"]])) > 65.0
