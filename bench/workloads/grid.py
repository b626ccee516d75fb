"""``grid``: CLFD and DeepLog cells through a 2-worker ``GridExecutor``.

CLFD and DeepLog x eta in {0.2, 0.45} x three seeds on CERT at scale
0.03, run cold into a fresh ``RunCache`` and then once more from it
(warm).  The parallel layer does nearly all its work here.  Two cells
are re-run alone in-process through ``execute_task`` as the reference
for both their metrics and their undisturbed duration.

The cells use the smoke benchmarks' model sizes (12-dim embeddings,
16 hidden units, batches of 32).  At ``CLFDConfig.fast`` sizes the
sequence GEMMs run multi-threaded in both workers, and the sweep swings
between 8 and 23 s from run to run (quartile spread 0.25-0.36 over ten
seeds), wider than any bound ``BENCHMARK.json`` may set; at these sizes
the workers still share the CPUs (cell inflation ~1.5) and the spread
is 0.05.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time

import numpy as np

from ..host import RssSampler, self_peak_rss_mb
from ..trace import summarize
from . import SETUP_REPEATS, Context, Result, Setup

WORKERS = 2
SCALE = 0.03
ETAS = (0.2, 0.45)
SEEDS_PER_SECOND = 0.3  # --seconds 10 gives three seeds: 12 cells


def _specs(seed: int, n_seeds: int):
    from repro import CLFDConfig
    from repro.baselines import BaselineConfig
    from repro.data import Word2VecConfig
    from repro.parallel import TaskSpec

    w2v = Word2VecConfig(dim=12, epochs=1)
    configs = (
        ("CLFD", "clfd", CLFDConfig(
            embedding_dim=12, hidden_size=16, batch_size=32,
            aux_batch_size=8, ssl_epochs=4, supcon_epochs=4,
            classifier_epochs=120, word2vec=w2v)),
        ("DeepLog", "DeepLog", BaselineConfig(
            embedding_dim=12, hidden_size=16, epochs=8, word2vec=w2v)),
    )
    return [TaskSpec(model=model, estimator=estimator, config=config,
                     dataset="cert", noise_kind="uniform",
                     noise_params=(eta,), seed=1000 * seed + s, scale=SCALE)
            for model, estimator, config in configs
            for eta in ETAS for s in range(n_seeds)]


def _same(a: dict, b: dict) -> bool:
    """Metric dicts equal float for float (NaN equals NaN)."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a)


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(ctx: Context) -> Result:
    from repro.data import clear_split_cache, make_dataset
    from repro.parallel import GridExecutor, RunCache
    from repro.parallel.worker import execute_task

    res = Result()
    n_seeds = max(1, round(SEEDS_PER_SECOND * ctx.seconds))

    def build(i: int):
        specs = _specs(ctx.seed, n_seeds)
        # The distinct splits the cells will train on, generated once
        # here (uncached, so workers still generate their own).
        for seed in sorted({spec.seed for spec in specs}):
            make_dataset("cert", np.random.default_rng(seed), scale=SCALE)
        return specs, RunCache(ctx.workdir / f"cache{i}")

    setup = Setup(build)
    specs, cache = setup.kept()
    res.params = {"workers": WORKERS, "cells": len(specs), "scale": SCALE,
                  "etas": ETAS, "seeds": sorted({s.seed for s in specs}),
                  "models": ["CLFD", "DeepLog"]}

    tracer = ctx.tracer
    if tracer is not None:
        tracer.wrap(RunCache, "put", "parallel.cache_put")
    try:
        cpu_before = _child_cpu_s()
        with RssSampler() as sampler:
            sweep = tracer.open("parallel.sweep") if tracer else None
            start = time.perf_counter()
            cold = GridExecutor(workers=WORKERS, cache=cache).run(specs)
            sweep_s = time.perf_counter() - start
            if sweep is not None:
                tracer.close(sweep)
        child_cpu_s = _child_cpu_s() - cpu_before
        start = time.perf_counter()
        warm = GridExecutor(workers=WORKERS, cache=cache).run(specs)
        warm_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    res.metric("setup_s", setup.finish(), SETUP_REPEATS)
    references = [0, len(specs) // 2]  # the first CLFD and DeepLog cells
    alone = {}
    for i in references:
        clear_split_cache()
        alone[i] = execute_task(specs[i])

    ok = [r for r in cold if r.ok]
    res.attempted = len(specs)
    res.failed = len(specs) - len(ok)
    cell_s = [r.seconds for r in ok]
    res.metric("sweep_s", sweep_s, 1)
    res.metric("fail_ratio", res.failed / len(specs), len(specs))
    aucs = [r.metrics["auc_roc"] for r in ok
            if not math.isnan(r.metrics["auc_roc"])]
    res.metric("auc", statistics.mean(aucs), len(aucs))
    res.metric("peak_rss_mb", max(sampler.peak_mb, self_peak_rss_mb()), 1)
    res.extra["cell_seconds"] = [r.seconds for r in cold]
    res.extra["metrics_digest"] = hashlib.sha256(json.dumps(
        [r.metrics for r in cold], sort_keys=True).encode()).hexdigest()

    res.check("no_failed_cells", not res.failed)
    res.check("warm_all_cached", all(r.cached for r in warm))
    res.check("warm_equals_cold", all(
        w.ok and _same(w.metrics, c.metrics) for w, c in zip(warm, cold)))
    res.check("reference_cells_equal", all(
        cold[i].ok and _same(alone[i]["metrics"], cold[i].metrics)
        for i in references))

    if tracer is not None:
        spans = summarize(tracer.spans)
        res.layer("parallel.cell_s_p50", statistics.median(cell_s))
        res.layer("parallel.cell_inflation",
                  sum(cold[i].seconds for i in references)
                  / sum(alone[i]["seconds"] for i in references))
        res.layer("parallel.overhead_s", sweep_s - sum(cell_s) / WORKERS)
        res.layer("parallel.cpu_util",
                  child_cpu_s / (sweep_s * os.cpu_count()))
        res.layer("parallel.warm_s", warm_s)
        res.layer("parallel.cache_put_s",
                  spans.get("parallel.cache_put", {"total": 0.0})["total"])
        res.layer("parallel.retries",
                  sum(r.attempts for r in cold) - len(specs))
    return res
