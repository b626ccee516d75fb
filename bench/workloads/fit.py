"""``fit``: the paper's workload, CLFD trained on noisy CERT sessions.

Word2vec, SSL pre-training, the label corrector, sup-con pre-training,
the classifier heads and the ``nn`` autograd ops do nearly all the work
here and none in the serving workloads.  Fits run interpreted with the
configuration every experiment table uses.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

from ..host import self_peak_rss_mb
from ..spec import TOP_BACKWARD_OPS
from ..trace import summarize
from . import SETUP_REPEATS, Context, Result, Setup

SCALE = 0.1          # 1030 train / 68 test sessions
ETA = 0.3            # uniform label noise
SECONDS_PER_FIT = 5  # --seconds 10 gives two fits (seeds s and s+1)

# Trainer scope -> per-layer metric, from the run's MetricJournal.
_PHASES = {
    "corrector/ssl": "core.corrector.ssl_s",
    "corrector/head": "core.corrector.head_s",
    "detector/supcon": "core.detector.supcon_s",
    "detector/head": "core.detector.head_s",
}


def _split(seed: int):
    from repro.data import apply_uniform_noise, make_dataset

    rng = np.random.default_rng(seed)
    train, test = make_dataset("cert", rng, scale=SCALE)
    apply_uniform_noise(train, eta=ETA, rng=rng)
    return train, test


def _install(tracer) -> None:
    from repro.core.label_corrector import LabelCorrector
    from repro.data.pipeline import SessionVectorizer
    from repro.train.trainer import Trainer

    tracer.wrap(SessionVectorizer, "fit", "data.word2vec")
    tracer.wrap(LabelCorrector, "correct", "core.corrector.correct")
    tracer.wrap(Trainer, "fit", lambda args: f"train.{args[0].scope}")


def run(ctx: Context) -> Result:
    from repro import CLFD, nn
    from repro.core import load_clfd, model_fingerprint, save_clfd
    from repro.experiments import ExperimentSettings
    from repro.metrics import evaluate_detector
    from repro.train import TrainRun, read_journal

    res = Result()
    n_fits = max(1, round(ctx.seconds / SECONDS_PER_FIT))
    seeds = [ctx.seed + i for i in range(n_fits)]
    config = ExperimentSettings().clfd_config()
    res.params = {"dataset": "cert", "scale": SCALE, "eta": ETA,
                  "seeds": seeds, "config": "ExperimentSettings.clfd_config"}

    setup = Setup(lambda i: [_split(s) for s in seeds])
    splits = setup.kept()

    tracer = ctx.tracer
    if tracer is not None:
        _install(tracer)
    # nn.profile hooks every graph node and slows a fit by ~70%, so in a
    # traced run only the last fit is profiled and the phase times come
    # from the others.
    profiled = seeds[-1]
    timed = seeds[:-1] or seeds
    fit_times, aucs, f1s, prints, profiles, journals = [], [], [], [], [], []
    try:
        for seed, (train, test) in zip(seeds, splits):
            with contextlib.ExitStack() as stack:
                train_run = None
                if tracer is not None:
                    journal = ctx.workdir / f"journal-{seed}.jsonl"
                    train_run = TrainRun(journal=journal)
                    if seed in timed:
                        journals.append(journal)
                    if seed == profiled:
                        profiles.append(stack.enter_context(nn.profile()))
                    stack.callback(tracer.close,
                                   tracer.open("fit", trace=f"fit-{seed}"))
                start = time.perf_counter()
                model = CLFD(config).fit(train, rng=np.random.default_rng(seed),
                                         run=train_run)
                labels, scores = model.predict(test)
                fit_times.append(time.perf_counter() - start)
            quality = evaluate_detector(test.labels(), labels, scores)
            aucs.append(quality["auc_roc"])
            f1s.append(quality["f1"])
            prints.append(model_fingerprint(model))
            res.check(f"scores_valid_seed{seed}",
                      bool(np.all((scores >= 0) & (scores <= 1))))
            # The archive serving loads must score exactly as the model.
            reloaded = load_clfd(save_clfd(model, ctx.workdir / "model.npz"))
            res.check(f"archive_roundtrip_seed{seed}", np.array_equal(
                reloaded.predict(test)[1], scores))
    finally:
        if tracer is not None:
            tracer.unwrap_all()

    res.attempted = n_fits
    res.metric("fit_s", float(np.median(fit_times)), n_fits)
    res.metric("auc", float(np.mean(aucs)), n_fits)
    res.metric("f1", float(np.mean([f for f in f1s if not math.isnan(f)]
                                   or [0.0])), n_fits)
    res.metric("peak_rss_mb", self_peak_rss_mb(), 1)
    res.metric("setup_s", setup.finish(), SETUP_REPEATS)
    res.extra["fingerprints"] = prints
    res.extra["fit_times_s"] = fit_times

    if tracer is not None:
        _layers(res, tracer, journals, profiles[0], timed, read_journal)
    return res


def _layers(res, tracer, journals, prof, timed, read_journal) -> None:
    """Per-fit layer times averaged over the unprofiled fits, op
    counters from the profiled one."""
    n = len(timed)
    traces = {f"fit-{seed}" for seed in timed}
    spans = summarize(s for s in tracer.spans if s.trace in traces)
    res.layer("data.word2vec_s", spans["data.word2vec"]["self"] / n)
    res.layer("core.corrector.correct_s",
              spans["core.corrector.correct"]["self"] / n)
    phase_s = dict.fromkeys(_PHASES.values(), 0.0)
    batches = 0
    for path in journals:
        for entry in read_journal(path):
            if "wall_s" in entry and entry.get("phase") in _PHASES:
                phase_s[_PHASES[entry["phase"]]] += entry["wall_s"]
            batches += entry.get("batches", 0)
    for name, seconds in phase_s.items():
        res.layer(name, seconds / n)
    res.layer("train.batches", batches / n)
    res.layer("nn.nodes", prof.total_nodes)
    res.layer("nn.backward_s", prof.total_backward_seconds)
    op_s = {op: stats.backward_seconds for op, stats in prof.ops.items()}
    for op in TOP_BACKWARD_OPS:
        res.layer(f"nn.op.{op}.backward_s", op_s.get(op, 0.0))
    res.extra["backward_by_op_s"] = dict(
        sorted(op_s.items(), key=lambda kv: -kv[1])[:10])
    # Share of the fit time that named layers account for; the rest is
    # the root span's own time (encoding passes, predict, construction).
    roots = spans["fit"]["total"]
    res.extra["trace_coverage"] = 1.0 - spans["fit"]["self"] / roots
