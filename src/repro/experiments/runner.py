"""Experiment runners for every table in the paper's evaluation.

Each ``run_table*`` function reproduces one artifact:

* Table I  — overall comparison under uniform noise;
* Table II — overall comparison under class-dependent noise;
* Table III — label-corrector TPR/TNR on the noisy training set;
* Tables IV/V — CLFD ablations under both noise models;
* §IV-B3 — training-latency comparison.

Every table runner returns ``{metric: [SweepCell, ...]}``: one
:class:`~repro.analysis.tables.SweepCell` per (row, dataset, noise) in
the runner's order, aggregated over seeds by
:func:`~repro.analysis.tables.cross_seed_table` and rendered by
:func:`~repro.analysis.tables.render_markdown` — the path ``repro
analyze`` takes through a run cache.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Sequence

import numpy as np

from ..analysis.tables import SweepCell, cross_seed_table
from ..baselines import BASELINES, Estimator
from ..data import SessionDataset, cached_splits
from ..data.noise import apply_noise, noise_label
from ..train import seed_everything
from ..parallel import (
    GridExecutor,
    RunCache,
    SweepError,
    TaskSpec,
    build_estimator,
    format_timing_summary,
)
from .settings import CLASS_DEPENDENT_RATES, DATASETS, ExperimentSettings

__all__ = [
    "NoiseSpec",
    "uniform_noise",
    "class_dependent_noise",
    "estimator_registry",
    "run_comparison",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_ablation",
    "run_table4",
    "run_table5",
    "run_latency",
    "ABLATIONS",
    "SweepError",
]

METRICS = ("f1", "fpr", "auc_roc")


@dataclasses.dataclass(frozen=True)
class NoiseSpec:
    """A label-noise process to apply to a training set.

    Plain data: a kind of :data:`repro.data.noise.NOISE_PROCESSES` and
    its parameters, so it crosses process boundaries and keys the run
    cache.  Calling it applies the process; :attr:`label` keys the
    results.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params",
                           tuple(float(p) for p in self.params))
        noise_label(self.kind, self.params)  # rejects an unknown kind

    @property
    def label(self) -> str:
        return noise_label(self.kind, self.params)

    def __call__(self, dataset: SessionDataset,
                 rng: np.random.Generator) -> None:
        apply_noise(dataset, self.kind, self.params, rng)


def uniform_noise(eta: float) -> NoiseSpec:
    return NoiseSpec("uniform", (eta,))


def class_dependent_noise(eta_10: float = CLASS_DEPENDENT_RATES[0],
                          eta_01: float = CLASS_DEPENDENT_RATES[1],
                          ) -> NoiseSpec:
    return NoiseSpec("class-dependent", (eta_10, eta_01))


def _estimator_specs(settings: ExperimentSettings,
                     models: Sequence[str] | None = None
                     ) -> dict[str, tuple[str, object]]:
    """The model table: display name -> picklable ``(estimator, config)``.

    The one place the harness names its models (``models`` picks and
    orders a subset; ``None`` is every model).  The pairs cross process
    boundaries and feed the run-cache key.
    """
    known = {"CLFD": ("clfd", settings.clfd_config())}
    for name in BASELINES:
        known[name] = (name, settings.baseline_config())
    if models is None:
        return known
    unknown = [name for name in models if name not in known]
    if unknown:
        raise KeyError(f"unknown model(s) {unknown!r}; "
                       f"choose from {sorted(known)}")
    return {name: known[name] for name in models}


def _cells(models: dict[str, tuple[str, object]], datasets: Sequence[str],
           noises: Sequence[NoiseSpec], seeds: int, scale: float,
           measure: str = "test_metrics") -> list[TaskSpec]:
    """One cell per model x dataset x noise x seed, in that order."""
    return [TaskSpec(model=name, estimator=estimator, config=config,
                     dataset=dataset, noise_kind=noise.kind,
                     noise_params=noise.params, seed=seed, scale=scale,
                     measure=measure)
            for name, (estimator, config) in models.items()
            for dataset in datasets
            for noise in noises
            for seed in range(seeds)]


def estimator_registry(settings: ExperimentSettings
                       ) -> dict[str, Callable[[], Estimator]]:
    """Every model the harness can run, as Estimator factories.

    A view of the model table: each factory builds its model the way a
    grid worker does, through
    :func:`~repro.parallel.worker.build_estimator` (the cell's dataset
    and noise play no part in that).  CLFD and the baselines are driven
    through the :class:`~repro.baselines.Estimator` protocol from here
    on — no per-model special cases downstream.
    """
    cells = _cells(_estimator_specs(settings), ["cert"],
                   [NoiseSpec("none")], 1, settings.scale)
    return {cell.model: functools.partial(build_estimator, cell)
            for cell in cells}


def _run_grid(specs: Sequence[TaskSpec], metrics: Sequence[str],
              workers: int, cache: RunCache | str | None, retries: int,
              verbose: bool, coordinate: str | None = None,
              ) -> dict[str, list[SweepCell]]:
    """Run a spec grid through one shared executor and aggregate it.

    The sweep itself is fault-isolated (every cell runs, successes are
    cached); only after it completes does a remaining failure raise
    :class:`SweepError`, so a re-run resumes from the cache and only
    recomputes the failed cells.  ``coordinate`` is the leader's listen
    address, so remote ``repro join`` workers can lease cells too.
    Returns ``{metric: cells}``, cells in spec order, aggregated over
    seeds from the same records the run cache holds.
    """
    executor = GridExecutor(workers=workers, cache=cache, retries=retries,
                            progress=bool(verbose), coordinate=coordinate)
    cell_results = executor.run(specs)
    if verbose:  # pragma: no cover - console reporting
        print(format_timing_summary(cell_results, executor.last_wall_seconds),
              flush=True)
    failures = [r for r in cell_results if not r.ok]
    if failures:
        raise SweepError(failures)
    records = [cell.record() for cell in cell_results]
    return {metric: cross_seed_table(records, metric) for metric in metrics}


def run_comparison(settings: ExperimentSettings, noises: Sequence[NoiseSpec],
                   models: Sequence[str] | None = None,
                   datasets: Sequence[str] = DATASETS,
                   verbose: bool = False,
                   workers: int = 1,
                   cache: RunCache | str | None = None,
                   retries: int = 1,
                   coordinate: str | None = None,
                   ) -> dict[str, list[SweepCell]]:
    """Grid of model x dataset x noise, aggregated over seeds.

    Executes through the shared :class:`~repro.parallel.GridExecutor`:
    ``workers`` fans the grid out over processes (1 = sequential, the
    default), ``cache`` (a directory path or :class:`RunCache`) skips
    cells already computed by a previous sweep, and a cell that still
    fails after ``retries`` extra attempts raises :class:`SweepError`
    once the rest of the sweep has completed.

    Returns ``{metric: cells}`` for F1, FPR and AUC-ROC, cells in
    model x dataset x noise order.
    """
    specs = _cells(_estimator_specs(settings, models), datasets, noises,
                   settings.seeds, settings.scale)
    return _run_grid(specs, METRICS, workers, cache, retries, verbose,
                     coordinate)


def run_table1(settings: ExperimentSettings | None = None,
               models: Sequence[str] | None = None,
               verbose: bool = False, **executor_kwargs
               ) -> dict[str, list[SweepCell]]:
    """Table I: uniform noise η sweep over all models and datasets."""
    settings = settings or ExperimentSettings.from_env()
    noises = [uniform_noise(eta) for eta in settings.etas]
    return run_comparison(settings, noises, models=models, verbose=verbose,
                          **executor_kwargs)


def run_table2(settings: ExperimentSettings | None = None,
               models: Sequence[str] | None = None,
               verbose: bool = False, **executor_kwargs
               ) -> dict[str, list[SweepCell]]:
    """Table II: class-dependent noise (η₁₀=0.3, η₀₁=0.45)."""
    settings = settings or ExperimentSettings.from_env()
    return run_comparison(settings, [class_dependent_noise()], models=models,
                          verbose=verbose, **executor_kwargs)


def run_table3(settings: ExperimentSettings | None = None,
               verbose: bool = False,
               workers: int = 1,
               cache: RunCache | str | None = None,
               retries: int = 1,
               coordinate: str | None = None,
               ) -> dict[str, list[SweepCell]]:
    """Table III: label-corrector TPR/TNR on the noisy training set.

    Returns ``{"tpr": cells, "tnr": cells}``, one CLFD row, cells in
    dataset x noise order.
    """
    settings = settings or ExperimentSettings.from_env()
    noises = [uniform_noise(0.45), class_dependent_noise()]
    specs = _cells(_estimator_specs(settings, ["CLFD"]), DATASETS, noises,
                   settings.seeds, settings.scale, measure="correction_rates")
    return _run_grid(specs, ("tpr", "tnr"), workers, cache, retries,
                     verbose, coordinate)


# Table IV/V rows -> config overrides (see CLFDConfig docstring).
ABLATIONS: dict[str, dict] = {
    "CLFD": {},
    "w/o LC": {"use_label_corrector": False},
    "w/o mixup-GCE": {"classifier_loss": "gce"},
    "w/o GCE loss": {"classifier_loss": "cce"},
    "w/o FD": {"use_fraud_detector": False},
    "w/o L_Sup": {"supcon_variant": "unweighted"},
    "w/o classifier (FD)": {"inference": "centroid"},
}


def run_ablation(noise: NoiseSpec, settings: ExperimentSettings | None = None,
                 variants: Sequence[str] | None = None,
                 datasets: Sequence[str] = DATASETS,
                 verbose: bool = False,
                 workers: int = 1,
                 cache: RunCache | str | None = None,
                 retries: int = 1,
                 coordinate: str | None = None,
                 ) -> dict[str, list[SweepCell]]:
    """Shared engine for Tables IV and V.

    Returns ``{metric: cells}`` for F1, FPR and AUC-ROC, one row per
    variant, cells in variant x dataset order.
    """
    settings = settings or ExperimentSettings.from_env()
    variants = list(variants) if variants else list(ABLATIONS)
    base = settings.clfd_config()
    rows = {variant: ("clfd", dataclasses.replace(base, **ABLATIONS[variant]))
            for variant in variants}
    specs = _cells(rows, datasets, [noise], settings.seeds, settings.scale)
    return _run_grid(specs, METRICS, workers, cache, retries, verbose,
                     coordinate)


def run_table4(settings: ExperimentSettings | None = None,
               **kwargs) -> dict[str, list[SweepCell]]:
    """Table IV: ablations under uniform noise η=0.45."""
    return run_ablation(uniform_noise(0.45), settings, **kwargs)


def run_table5(settings: ExperimentSettings | None = None,
               **kwargs) -> dict[str, list[SweepCell]]:
    """Table V: ablations under class-dependent noise."""
    return run_ablation(class_dependent_noise(), settings, **kwargs)


def run_latency(settings: ExperimentSettings | None = None,
                dataset: str = "cert", eta: float = 0.3,
                models: Sequence[str] | None = None,
                verbose: bool = False) -> dict[str, float]:
    """§IV-B3: wall-clock training time per model, in seconds.

    Each model trains on the seed-0 cell of the grid (same split, noise
    and estimator construction as a table cell); only ``fit`` is timed.
    Absolute numbers are hardware-specific; the paper's claim is the
    *relative* cost — supervised-contrastive models (CLFD, Sel-CL, CTRR)
    cost a multiple of the rest.
    """
    settings = settings or ExperimentSettings.from_env()
    cells = _cells(_estimator_specs(settings, models), [dataset],
                   [uniform_noise(eta)], 1, settings.scale)
    latencies: dict[str, float] = {}
    for cell in cells:
        train, _, rng = cached_splits(cell.dataset, cell.seed, cell.scale)
        cell.apply_noise(train, rng)
        model = build_estimator(cell)
        start = time.perf_counter()
        model.fit(train, rng=seed_everything(cell.seed))
        latencies[cell.model] = time.perf_counter() - start
        if verbose:  # pragma: no cover
            print(f"{cell.model:10s} {latencies[cell.model]:8.2f}s",
                  flush=True)
    return latencies

