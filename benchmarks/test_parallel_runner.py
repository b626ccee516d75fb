"""Grid executor benchmark: speedup, cache resume and analysis.

Runs a smoke-scale grid three ways: sequential, through ``workers=4``
(the coordinator with four forked local workers), and warm from the
shared :class:`~repro.parallel.RunCache`; then pushes the cache through
``analyze_cache``.  The assertions:

* every execution mode is bit-identical to sequential (the whole point
  of the executor design);
* a warm re-run skips every cell, in under a quarter of the cold wall;
* the analysis layer renders mean±std plus Holm-corrected paired tests
  from the cache alone;
* four workers deliver >= 2x the sequential throughput.  That floor is
  asserted only when the host has >= 4 CPUs (a 1-core container cannot
  speed anything up by forking), but the measured numbers are always
  recorded in ``benchmarks/results/latest.txt``.

Marked ``smoke``: 12 tiny DeepLog/LogBert cells, seconds end to end.
"""

import math
import os

import pytest

from repro.analysis import analyze_cache
from repro.baselines import BaselineConfig
from repro.data import Word2VecConfig, clear_split_cache
from repro.parallel import GridExecutor, RunCache, TaskSpec

pytestmark = pytest.mark.smoke

MIN_SPEEDUP = 2.0
WORKERS = 4


def _smoke_grid():
    config = BaselineConfig(embedding_dim=12, hidden_size=16, epochs=2,
                            batch_size=32,
                            word2vec=Word2VecConfig(dim=12, epochs=1))
    return [
        TaskSpec(model=model, estimator=model, config=config, dataset="cert",
                 noise_kind="uniform", noise_params=(eta,), seed=seed,
                 scale=0.02)
        for model in ("DeepLog", "LogBert")
        for eta in (0.2, 0.45)
        for seed in range(3)
    ]


def _same_metrics(a, b):
    """Exact equality per metric, NaN equal to NaN (an all-negative
    cell's F1 is NaN, and a NaN that crossed a process boundary or was
    read back from JSON is a new object, so plain dict ``==`` never
    holds)."""
    return a.keys() == b.keys() and all(
        a[name] == b[name] or (math.isnan(a[name]) and math.isnan(b[name]))
        for name in a)


def test_parallel_runner_speedup_resume_and_analysis(report, tmp_path):
    specs = _smoke_grid()
    cache = RunCache(tmp_path / "run-cache")

    clear_split_cache()
    sequential = GridExecutor(workers=1)
    seq_results = sequential.run(specs)
    seq_wall = sequential.last_wall_seconds

    clear_split_cache()
    parallel = GridExecutor(workers=WORKERS, cache=cache)
    par_results = parallel.run(specs)
    par_wall = parallel.last_wall_seconds

    warm = GridExecutor(workers=WORKERS, cache=cache)
    warm_results = warm.run(specs)
    warm_wall = warm.last_wall_seconds

    speedup = seq_wall / par_wall if par_wall > 0 else float("inf")
    resume = seq_wall / warm_wall if warm_wall > 0 else float("inf")
    report(f"grid executor: {len(specs)} cells, cpu_count={os.cpu_count()}")
    report(f"  sequential (1 worker)       {seq_wall:8.2f}s")
    report(f"  coordinator ({WORKERS} workers)   {par_wall:8.2f}s "
           f"({speedup:.1f}x)")
    report(f"  warm resume from cache      {warm_wall:8.2f}s ({resume:.1f}x)")

    # Bit-identity: same metrics from every execution mode.
    assert all(r.ok for r in seq_results)
    for seq, par, res in zip(seq_results, par_results, warm_results):
        assert _same_metrics(par.metrics, seq.metrics), (par, seq)
        assert _same_metrics(res.metrics, seq.metrics), (res, seq)

    # Resume: the warm run reads 12 JSON files instead of training.
    assert all(r.cached for r in warm_results)
    assert warm_wall < par_wall / 4

    tables = analyze_cache(cache, metric="f1", target="DeepLog", fmt="both")
    assert "p (t, Holm)" in tables
    assert "\\begin{tabular}" in tables
    report("  analyze: aggregation + Holm-corrected paired tests render ok")

    if (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x with {WORKERS} workers, "
            f"measured {speedup:.2f}x")
    else:
        report(f"  (speedup floor skipped: {os.cpu_count()} CPU(s))")
