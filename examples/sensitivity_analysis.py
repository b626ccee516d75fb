"""Hyper-parameter sensitivity: sweep the GCE exponent q.

The paper fixes q = 0.7 following Zhang & Sabuncu; this example uses the
generic sweep runner to measure how sensitive CLFD is to that choice at
high noise, and renders the curve in the terminal.

Run:  python examples/sensitivity_analysis.py
"""

from repro.analysis import ascii_curve, render_markdown
from repro.experiments import (
    ExperimentSettings,
    sweep_config_field,
    uniform_noise,
)


def main():
    settings = ExperimentSettings(scale=0.1, seeds=1)
    qs = [0.3, 0.5, 0.7, 0.9]
    results = sweep_config_field("q", qs, settings=settings,
                                 noise=uniform_noise(0.45), verbose=True)

    for metric, cells in results.items():
        print()
        print(render_markdown(cells, metric))
    print()
    print(ascii_curve(qs, [cell.mean for cell in results["f1"]],
                      title="CLFD F1 vs GCE exponent q (cert, η=0.45)",
                      y_label="F1 %", height=10))


if __name__ == "__main__":
    main()
