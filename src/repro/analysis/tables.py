"""Publication-ready analysis over sweep output.

Turns a (possibly multi-host) sweep's :class:`~repro.parallel.RunCache`
into the artifacts the paper actually reports: cross-seed aggregation
(mean ± std per model × dataset × noise cell), paired significance
tests of a target model against every baseline (paired t and Wilcoxon
signed-rank, Holm-corrected across the baseline family), and rendering
as markdown or LaTeX.

The cache is the natural input: records are content-keyed and
self-describing (model, dataset, noise, seed, scale, measure, metrics),
so ``repro analyze`` works identically on a sweep that just finished,
on one resumed across interruptions, and on one computed by a dozen
hosts into a shared directory.  The table runners aggregate their
in-memory cell records through the same :func:`cross_seed_table` and
render through the same :func:`render_markdown`.  Per-seed values are
kept — a mean±std is not enough for paired tests, which need the
seed-aligned vectors.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..data import noise as _noise
from ..parallel.cache import RunCache
from .stats import PairedTest, holm_correction, paired_t_test, \
    wilcoxon_signed_rank

__all__ = ["SweepCell", "SignificanceRow", "load_sweep_records",
           "cross_seed_table", "significance_report", "render_markdown",
           "render_latex", "render_significance_markdown",
           "render_significance_latex", "noise_label", "analyze_cache"]


def noise_label(noise: Sequence) -> str:
    """The runners' result label for a cache record's serialised
    ``[kind, params]`` pair; a kind outside
    :data:`~repro.data.noise.NOISE_PROCESSES` reads as clean."""
    kind, params = noise
    if kind not in _noise.NOISE_PROCESSES:
        kind, params = "none", ()
    return _noise.noise_label(kind, params)


@dataclasses.dataclass
class SweepCell:
    """One (model, dataset, noise) cell's cross-seed aggregate.

    ``model`` is the table row: a model, an ablation variant or a swept
    config value.  Equality is bitwise with NaN equal to NaN (a metric
    undefined on its input), so the parallel and resume contracts hold
    for cells whose values were pickled or read back from JSON.
    """

    model: str
    dataset: str
    noise: str
    seeds: list[int]
    values: list[float]  # metric value per seed, aligned with `seeds`

    def __eq__(self, other) -> bool:
        if not isinstance(other, SweepCell):
            return NotImplemented
        return ((self.model, self.dataset, self.noise, self.seeds)
                == (other.model, other.dataset, other.noise, other.seeds)
                and np.array_equal(self.values, other.values,
                                   equal_nan=True))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        # ddof=0: the population std small-n result tables report.
        return float(np.std(self.values)) if self.values else float("nan")

    def format(self, digits: int = 2) -> str:
        return f"{self.mean:.{digits}f}±{self.std:.{digits}f}"


@dataclasses.dataclass
class SignificanceRow:
    """Target vs one baseline: both paired tests, Holm-adjusted."""

    baseline: str
    t: PairedTest
    wilcoxon: PairedTest

    def significant(self, alpha: float = 0.05) -> bool:
        p = self.t.adjusted_pvalue
        return p is not None and not math.isnan(p) and p < alpha


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_sweep_records(cache: RunCache | str | os.PathLike,
                       measure: str = "test_metrics") -> list[dict]:
    """Read every valid record of ``measure`` kind from a run cache.

    Corrupt or torn records are skipped exactly as the executor skips
    them (they re-run on the next sweep, so they are not results yet).
    Records come back sorted by (model, dataset, noise label, seed), so
    tables built from them list their cells in that order.
    """
    if not isinstance(cache, RunCache):
        cache = RunCache(cache)
    records = []
    for path in sorted(cache.root.glob("*.json")):
        record = cache.get(path.stem)
        if record is None or not isinstance(record.get("metrics"), dict):
            continue
        if record.get("measure", "test_metrics") != measure:
            continue
        records.append(record)
    return sorted(records, key=lambda r: (*_cell_of(r), int(r["seed"])))


def _cell_of(record: dict) -> tuple[str, str, str]:
    """A record's (model, dataset, noise label) table cell."""
    return (str(record.get("model", record.get("estimator", "?"))),
            str(record["dataset"]), noise_label(record["noise"]))


def _grouped(records: Iterable[dict], metric: str
             ) -> dict[tuple[str, str, str], dict[int, float]]:
    """(model, dataset, noise) -> {seed: value}; conflicting duplicates
    (same cell, same seed, different value — two different configs
    sharing one cache dir under one display name) raise rather than
    silently averaging apples with oranges."""
    grouped: dict[tuple[str, str, str], dict[int, float]] = {}
    for record in records:
        metrics = record["metrics"]
        if metric not in metrics:
            continue
        value = metrics[metric]
        if value is None:
            value = float("nan")
        cell = _cell_of(record)
        seed = int(record["seed"])
        per_seed = grouped.setdefault(cell, {})
        if seed in per_seed:
            existing = per_seed[seed]
            same = (existing == value
                    or (math.isnan(existing) and math.isnan(float(value))))
            if not same:
                raise ValueError(
                    f"conflicting records for {cell} seed {seed}: "
                    f"{existing!r} vs {value!r} — this cache directory "
                    f"mixes sweeps with different configs under the same "
                    f"model name; analyze them separately")
        per_seed[seed] = float(value)
    return grouped


# ----------------------------------------------------------------------
# Aggregation + significance
# ----------------------------------------------------------------------
def cross_seed_table(records: Iterable[dict], metric: str = "f1",
                     ) -> list[SweepCell]:
    """Aggregate a metric over seeds for every (model, dataset, noise).

    Cells come in the order their first record does, so a runner's
    (row, dataset, noise) order is the table's.
    """
    cells = []
    for (model, dataset, noise), per_seed in \
            _grouped(records, metric).items():
        seeds = sorted(per_seed)
        cells.append(SweepCell(model=model, dataset=dataset, noise=noise,
                               seeds=seeds,
                               values=[per_seed[s] for s in seeds]))
    return cells


def significance_report(records: Iterable[dict], metric: str = "f1",
                        target: str = "CLFD") -> list[SignificanceRow]:
    """Paired tests of ``target`` against every other model.

    Pairs are matched on (dataset, noise, seed) — the axes the paper
    holds fixed when comparing models — pooled across datasets and
    noise levels so small per-cell seed counts still yield a usable n.
    Non-finite pairs (an undefined metric on either side) are dropped
    by the tests themselves.  Holm correction is applied per test
    family across the baselines.
    """
    records = list(records)
    grouped = _grouped(records, metric)
    target_values: dict[tuple[str, str, int], float] = {}
    for (model, dataset, noise), per_seed in grouped.items():
        if model == target:
            for seed, value in per_seed.items():
                target_values[(dataset, noise, seed)] = value
    if not target_values:
        raise ValueError(f"no records for target model {target!r}; "
                         f"models present: "
                         f"{sorted({m for m, _, _ in grouped})}")

    rows = []
    for baseline in sorted({model for model, _, _ in grouped
                            if model != target}):
        x, y = [], []
        for (model, dataset, noise), per_seed in grouped.items():
            if model != baseline:
                continue
            for seed, value in per_seed.items():
                t_value = target_values.get((dataset, noise, seed))
                if t_value is not None:
                    x.append(t_value)
                    y.append(value)
        if len(x) < 2:
            continue  # nothing to pair — different sweep axes
        rows.append(SignificanceRow(baseline=baseline,
                                    t=paired_t_test(x, y),
                                    wilcoxon=wilcoxon_signed_rank(x, y)))

    for family in ("t", "wilcoxon"):
        adjusted = holm_correction([getattr(r, family).pvalue
                                    for r in rows])
        for row, p in zip(rows, adjusted):
            setattr(row, family, getattr(row, family).adjusted(p))
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _table_axes(cells: Sequence[SweepCell]):
    models = list(dict.fromkeys(c.model for c in cells))
    datasets = sorted({c.dataset for c in cells})
    noises = list(dict.fromkeys(c.noise for c in cells))
    index = {(c.model, c.dataset, c.noise): c for c in cells}
    return models, datasets, noises, index


def _p_str(p: float | None) -> str:
    if p is None or math.isnan(p):
        return "—"
    if p < 1e-4:
        return f"{p:.1e}"
    return f"{p:.4f}"


def render_markdown(cells: Sequence[SweepCell], metric: str = "f1",
                    digits: int = 2,
                    paper: Mapping[tuple[str, str, str], float] | None = None,
                    ) -> str:
    """Cross-seed table as GitHub markdown: model × noise rows,
    dataset columns, mean±std cells with the seed count.

    ``paper`` maps (row, dataset, noise label) to the paper's reported
    mean (:func:`repro.experiments.paper_reference.lookup`); with it,
    each dataset column is followed by a paper column, "—" where the
    paper reports no value.
    """
    models, datasets, noises, index = _table_axes(cells)
    header = []
    for dataset in datasets:
        header.append(f"{dataset} ({metric}, mean±std)")
        if paper is not None:
            header.append(f"{dataset} (paper)")
    lines = ["| Model | Noise | " + " | ".join(header) + " |",
             "|" + "---|" * (2 + len(header))]
    for model in models:
        for noise in noises:
            row = [model, noise]
            any_cell = False
            for dataset in datasets:
                cell = index.get((model, dataset, noise))
                if cell is None:
                    row.append("—")
                else:
                    row.append(f"{cell.format(digits)} (n={cell.n})")
                    any_cell = True
                if paper is not None:
                    ref = paper.get((model, dataset, noise))
                    row.append("—" if ref is None else f"{ref:.{digits}f}")
            if any_cell:
                lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_latex(cells: Sequence[SweepCell], metric: str = "f1",
                 digits: int = 2, caption: str | None = None,
                 label: str | None = None) -> str:
    """Cross-seed table as a LaTeX ``table`` with booktabs rules."""
    models, datasets, noises, index = _table_axes(cells)
    column_spec = "ll" + "c" * len(datasets)
    lines = ["\\begin{table}[t]", "\\centering"]
    if caption:  # caller may embed math — escape metric names upstream
        lines.append(f"\\caption{{{caption}}}")
    if label:
        lines.append(f"\\label{{{label}}}")
    lines += [f"\\begin{{tabular}}{{{column_spec}}}", "\\toprule"]
    header = ["Model", "Noise"] + [_latex_escape(f"{d} ({metric})")
                                   for d in datasets]
    lines.append(" & ".join(header) + " \\\\")
    lines.append("\\midrule")
    for model in models:
        for noise in noises:
            row = [_latex_escape(model), _latex_escape(noise)]
            any_cell = False
            for dataset in datasets:
                cell = index.get((model, dataset, noise))
                if cell is None:
                    row.append("---")
                else:
                    row.append(f"${cell.mean:.{digits}f} \\pm "
                               f"{cell.std:.{digits}f}$")
                    any_cell = True
            if any_cell:
                lines.append(" & ".join(row) + " \\\\")
    lines += ["\\bottomrule", "\\end{tabular}", "\\end{table}"]
    return "\n".join(lines)


def render_significance_markdown(rows: Sequence[SignificanceRow],
                                 target: str = "CLFD",
                                 alpha: float = 0.05) -> str:
    lines = [
        f"| {target} vs | n | Δmean | t | p (t) | p (t, Holm) "
        f"| W | p (W) | p (W, Holm) | sig. (α={alpha:g}) |",
        "|" + "---|" * 10,
    ]
    for row in rows:
        mark = "**yes**" if row.significant(alpha) else "no"
        lines.append(
            f"| {row.baseline} | {row.t.n} | {row.t.mean_difference:+.3f} "
            f"| {row.t.statistic:.3f} | {_p_str(row.t.pvalue)} "
            f"| {_p_str(row.t.adjusted_pvalue)} "
            f"| {row.wilcoxon.statistic:.1f} "
            f"| {_p_str(row.wilcoxon.pvalue)} "
            f"| {_p_str(row.wilcoxon.adjusted_pvalue)} | {mark} |")
    return "\n".join(lines)


def render_significance_latex(rows: Sequence[SignificanceRow],
                              target: str = "CLFD",
                              alpha: float = 0.05) -> str:
    lines = [
        "\\begin{table}[t]", "\\centering",
        f"\\caption{{Paired tests of {_latex_escape(target)} against "
        f"each baseline (Holm-corrected, $\\alpha={alpha:g}$).}}",
        "\\begin{tabular}{lrrrrrr}", "\\toprule",
        "Baseline & $n$ & $\\Delta$mean & $t$ & $p_t^{\\mathrm{Holm}}$ & "
        "$W$ & $p_W^{\\mathrm{Holm}}$ \\\\",
        "\\midrule",
    ]
    for row in rows:
        name = _latex_escape(row.baseline)
        if row.significant(alpha):
            name = f"\\textbf{{{name}}}"
        lines.append(
            f"{name} & {row.t.n} & ${row.t.mean_difference:+.3f}$ & "
            f"${row.t.statistic:.3f}$ & {_p_str(row.t.adjusted_pvalue)} & "
            f"${row.wilcoxon.statistic:.1f}$ & "
            f"{_p_str(row.wilcoxon.adjusted_pvalue)} \\\\")
    lines += ["\\bottomrule", "\\end{tabular}", "\\end{table}"]
    return "\n".join(lines)


def _latex_escape(text: str) -> str:
    for char in "&%$#_{}":
        text = text.replace(char, "\\" + char)
    return text


# ----------------------------------------------------------------------
# One-call entry point (what `repro analyze` drives)
# ----------------------------------------------------------------------
def analyze_cache(cache: RunCache | str | os.PathLike, metric: str = "f1",
                  target: str = "CLFD", fmt: str = "markdown",
                  alpha: float = 0.05, measure: str = "test_metrics",
                  ) -> str:
    """Aggregate + test + render a run-cache directory in one call.

    A ``metric`` no record carries, or a ``target`` missing from a cache
    of two or more models, raises :class:`ValueError` naming what the
    cache holds; a single-model cache gets the aggregate table alone.
    """
    records = load_sweep_records(cache, measure=measure)
    if not records:
        raise ValueError(f"no completed {measure!r} records in "
                         f"{cache!r} — run a sweep first")
    cells = cross_seed_table(records, metric=metric)
    if not cells:
        present = sorted({name for r in records for name in r["metrics"]})
        raise ValueError(f"no {measure!r} record carries metric "
                         f"{metric!r}; metrics present: {present}")
    models = {c.model for c in cells}
    # significance_report raises for a target the cache does not hold.
    rows = (significance_report(records, metric=metric, target=target)
            if len(models) > 1 else [])
    sections = []
    if fmt in ("markdown", "both"):
        sections.append(f"### Cross-seed aggregation ({metric})\n")
        sections.append(render_markdown(cells, metric=metric))
        if rows:
            sections.append(f"\n### Significance vs {target} "
                            f"({len(models) - 1} baselines)\n")
            sections.append(render_significance_markdown(
                rows, target=target, alpha=alpha))
    if fmt in ("latex", "both"):
        sections.append("\n% ---- LaTeX ----" if fmt == "both" else "")
        sections.append(render_latex(
            cells, metric=metric,
            caption=f"Cross-seed {_latex_escape(metric)} "
                    f"(mean $\\pm$ std).",
            label=f"tab:{metric}"))
        if rows:
            sections.append(render_significance_latex(
                rows, target=target, alpha=alpha))
    return "\n".join(s for s in sections if s)
