"""Command-line interface: reproduce any paper table from the shell.

Usage::

    python -m repro table1 --scale 0.1 --seeds 3
    python -m repro table1 --seeds 5 --workers 2 --hosts :7787
    python -m repro join leader-host:7787
    python -m repro analyze --metric f1 --format both
    python -m repro table3
    python -m repro ablation --noise uniform
    python -m repro latency
    python -m repro demo
    python -m repro save --out model.npz
    python -m repro serve --model model.npz
    python -m repro quantize --model model.npz --out model-int8.npz
    python -m repro distill --model model.npz --out student.npz
    python -m repro stream --model model.npz --workdir stream-state

Each table command prints a title line, then one markdown table per
metric (cross-seed mean±std, next to the paper's value where it
reports one); scale/seed options map onto
:class:`repro.experiments.ExperimentSettings`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import render_markdown
from .parallel import DEFAULT_CACHE_DIR
from .experiments import (
    ExperimentSettings,
    class_dependent_noise,
    paper_reference,
    run_ablation,
    run_latency,
    run_table1,
    run_table2,
    run_table3,
    uniform_noise,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the CLFD paper's experiment tables.",
    )
    parser.add_argument("--scale", type=float, default=0.1,
                        help="dataset scale factor (1.0 = paper size)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of repeated runs per cell")
    parser.add_argument("--workers", type=int, default=1,
                        help="local worker processes for grid commands "
                             "(1 = sequential in-process; N > 1 = a "
                             "coordinator on 127.0.0.1 with N forked "
                             "workers)")
    parser.add_argument("--hosts", metavar="ADDR", default=None,
                        help="listen address (host:port, ':0' = ephemeral) "
                             "for multi-host sweeps: this process becomes "
                             "the leader, --workers local workers join, and "
                             "remote hosts join with `repro join ADDR` "
                             "(grid commands)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk run cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="run-cache directory (grid commands)")
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="Table I: uniform-noise comparison")
    t1.add_argument("--etas", type=str, default="0.1,0.45",
                    help="comma-separated noise rates")
    t1.add_argument("--models", type=str, default=None,
                    help="comma-separated model subset (default: all)")

    t2 = sub.add_parser("table2", help="Table II: class-dependent noise")
    t2.add_argument("--models", type=str, default=None)

    sub.add_parser("table3", help="Table III: label-corrector TPR/TNR")

    ab = sub.add_parser("ablation", help="Tables IV/V: CLFD ablations")
    ab.add_argument("--noise", choices=("uniform", "class-dependent"),
                    default="uniform")
    ab.add_argument("--eta", type=float, default=0.45,
                    help="uniform noise rate (uniform mode only)")

    sub.add_parser("latency", help="Section IV-B3: training latency")

    jn = sub.add_parser(
        "join", help="join a running sweep leader as a worker host")
    jn.add_argument("address", help="leader address from the leader's "
                                    "banner, e.g. 10.0.0.5:7787")
    jn.add_argument("--id", default=None,
                    help="worker id (default: host:pid:uuid)")
    jn.add_argument("--max-cells", type=int, default=None,
                    help="leave after completing this many cells")

    an = sub.add_parser(
        "analyze",
        help="cross-seed aggregation + paired significance tests over "
             "a sweep's run-cache directory")
    an.add_argument("--metric", default="f1",
                    help="metric to aggregate and test (default: f1)")
    an.add_argument("--target", default="CLFD",
                    help="model the paired tests compare against every "
                         "other model (default: CLFD)")
    an.add_argument("--format", default="markdown",
                    choices=("markdown", "latex", "both"),
                    help="table rendering (default: markdown)")
    an.add_argument("--alpha", type=float, default=0.05,
                    help="significance level after Holm correction")
    an.add_argument("--measure", default="test_metrics",
                    help="record kind to analyze (default: test_metrics; "
                         "correction_rates for table3 caches)")

    sw = sub.add_parser("sweep", help="sweep one CLFDConfig field")
    sw.add_argument("field", help="config field, e.g. q or mixup_beta")
    sw.add_argument("values", nargs="+",
                    help="values to sweep (parsed as float when possible)")
    sw.add_argument("--eta", type=float, default=0.45)
    sw.add_argument("--dataset", default="cert",
                    choices=("cert", "umd-wikipedia", "openstack"))

    demo = sub.add_parser("demo", help="train CLFD once and print metrics")
    demo.add_argument("--dataset", default="cert",
                      choices=("cert", "umd-wikipedia", "openstack"))
    demo.add_argument("--eta", type=float, default=0.3)

    save = sub.add_parser(
        "save", help="train CLFD once and persist it for serving")
    save.add_argument("--out", required=True,
                      help="target archive path (.npz appended if missing)")
    save.add_argument("--dataset", default="cert",
                      choices=("cert", "umd-wikipedia", "openstack"))
    save.add_argument("--eta", type=float, default=0.3)

    serve = sub.add_parser(
        "serve", help="serve a persisted model over HTTP with micro-batching")
    serve.add_argument("--model", required=True,
                       help="archive written by `repro save` / save_clfd")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument("--workers", type=int, default=1,
                       help="scoring worker processes (>1 shards sessions "
                            "across a cluster sharing one weight copy)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch size ceiling")
    serve.add_argument("--max-wait-ms", type=float, default=0.0,
                       help="coalescing window after the first request "
                            "(default 0: batch whatever is queued when "
                            "the worker is free)")
    serve.add_argument("--max-queue", type=int, default=1024,
                       help="queue bound before 429 backpressure")
    serve.add_argument("--rate-limit-rps", type=float, default=None,
                       help="per-tenant sustained sessions/second "
                            "(default: no rate limiting)")
    serve.add_argument("--rate-limit-burst", type=float, default=None,
                       help="per-tenant burst capacity "
                            "(default: the sustained rate)")
    serve.add_argument("--score-timeout", type=float, default=30.0,
                       help="server-side bound on one request's scoring wait")
    serve.add_argument("--precision", default=None,
                       choices=("float32", "float16", "int8"),
                       help="serve through the low-precision runtime "
                            "(quantizes full-precision archives on the "
                            "fly; default: serve the archive as persisted)")

    qz = sub.add_parser(
        "quantize",
        help="quantize a persisted archive for low-precision serving")
    qz.add_argument("--model", required=True,
                    help="source archive written by `repro save` / save_clfd")
    qz.add_argument("--out", required=True,
                    help="target quantized archive (.npz appended if missing)")
    qz.add_argument("--precision", default="int8",
                    choices=("float32", "float16", "int8"),
                    help="storage precision for the detector weights")

    ds = sub.add_parser(
        "distill",
        help="train a 1-layer student on a teacher archive's soft scores")
    ds.add_argument("--model", required=True,
                    help="fitted teacher archive")
    ds.add_argument("--out", required=True,
                    help="target student archive (.npz appended if missing)")
    ds.add_argument("--dataset", default="cert",
                    choices=("cert", "umd-wikipedia", "openstack"))
    ds.add_argument("--epochs", type=int, default=None,
                    help="distillation epochs "
                         "(default: the config's classifier_epochs)")
    ds.add_argument("--seed", type=int, default=0)

    st = sub.add_parser(
        "stream",
        help="score an event stream online with drift detection and "
             "label re-correction")
    st.add_argument("--model", required=True,
                    help="full-precision archive to serve initially "
                         "(also the frozen baseline for --compare-frozen)")
    st.add_argument("--workdir", required=True,
                    help="state directory: checkpoint, journal, "
                         "re-corrected archives")
    st.add_argument("--events", default=None,
                    help="existing JSONL event log; default: synthesize "
                         "a drifting stream into <workdir>/events.jsonl")
    st.add_argument("--dataset", default="cert",
                    choices=("cert", "umd-wikipedia", "openstack"),
                    help="archetype family for synthesized streams")
    st.add_argument("--drift", default="archetype+noise",
                    choices=("none", "archetype", "noise",
                             "archetype+noise"),
                    help="what shifts mid-stream in synthesized streams")
    st.add_argument("--sessions", type=int, default=240,
                    help="synthesized stream length in sessions")
    st.add_argument("--stream-seed", type=int, default=11,
                    help="seed for the synthesized stream")
    st.add_argument("--seed", type=int, default=0,
                    help="processor seed (re-correction batching)")
    st.add_argument("--window-size", type=float, default=60.0,
                    help="window length in stream time units")
    st.add_argument("--session-gap", type=float, default=4.0,
                    help="silence after which a session closes")
    st.add_argument("--max-session-len", type=int, default=16,
                    help="hard cap on events per session")
    st.add_argument("--recorrect-windows", type=int, default=5,
                    help="trailing windows re-correction trains on")
    st.add_argument("--head-epochs", type=int, default=30,
                    help="fine-tune epochs per re-correction")
    st.add_argument("--max-recorrections", type=int, default=None,
                    help="cap on re-correction passes")
    st.add_argument("--max-windows", type=int, default=None,
                    help="stop after this many windows (kill point; "
                         "rerun with --resume to continue)")
    st.add_argument("--resume", action="store_true",
                    help="continue from <workdir>/checkpoint.json")
    st.add_argument("--compare-frozen", action="store_true",
                    help="after the run, re-score post-swap sessions "
                         "with the frozen model and print both AUCs")

    tr = sub.add_parser(
        "train", help="checkpointed CLFD training with kill/resume support")
    tr.add_argument("--dataset", default="cert",
                    choices=("cert", "umd-wikipedia", "openstack"))
    tr.add_argument("--eta", type=float, default=0.3,
                    help="uniform label-noise rate")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--checkpoint-dir", required=True,
                    help="directory for phase/epoch snapshots")
    tr.add_argument("--resume", action="store_true",
                    help="continue from the snapshots in --checkpoint-dir")
    tr.add_argument("--journal", default=None,
                    help="metrics journal path "
                         "(default: <checkpoint-dir>/journal.jsonl)")
    tr.add_argument("--snapshot-every", type=int, default=1,
                    help="epoch-snapshot cadence within each phase")
    tr.add_argument("--stop-after", default=None,
                    help="crash drill: interrupt after this phase tag "
                         "(or '<scope>@N' after epoch N) checkpoints")
    tr.add_argument("--profile", action="store_true",
                    help="attach nn.profile op breakdowns to the journal")
    tr.add_argument("--metrics-out", default=None,
                    help="write deterministic JSON (metrics + parameter "
                         "fingerprint) here — bit-diffable across resumes")
    tr.add_argument("--out", default=None,
                    help="persist the fitted model archive here")

    sub.add_parser(
        "lint-graph",
        help="structural lint of a CLFD training-step autograd graph "
             "(exit 2 on error-severity issues)")

    tl = sub.add_parser("tail", help="render a training journal")
    tl.add_argument("--journal", required=True)
    tl.add_argument("-n", "--lines", type=int, default=10,
                    help="number of trailing entries to show")
    tl.add_argument("--phase", default=None,
                    help="only entries of this phase")
    tl.add_argument("--follow", action="store_true",
                    help="keep streaming new entries")
    return parser


def _settings(args) -> ExperimentSettings:
    settings = ExperimentSettings.from_env()
    settings.scale = args.scale
    settings.seeds = args.seeds
    return settings


def _model_list(value: str | None) -> list[str] | None:
    return value.split(",") if value else None


def _executor_kwargs(args) -> dict:
    """workers/cache/coordination settings shared by grid subcommands."""
    kwargs = {
        "workers": args.workers,
        "cache": None if args.no_cache else args.cache_dir,
    }
    if args.hosts is not None:
        kwargs["coordinate"] = args.hosts
    return kwargs


def _print_tables(title: str, results: dict, paper: bool = True) -> None:
    """A table command's output: ``title``, then one markdown table per
    metric, with the paper's column when ``paper``."""
    print()
    print(title)
    for metric, cells in results.items():
        print()
        print(render_markdown(
            cells, metric,
            paper=paper_reference.lookup(metric) if paper else None))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    settings = _settings(args)

    if args.command == "table1":
        settings.etas = tuple(float(e) for e in args.etas.split(","))
        results = run_table1(settings, models=_model_list(args.models),
                             verbose=True, **_executor_kwargs(args))
        _print_tables("Table I (measured)", results)
    elif args.command == "table2":
        results = run_table2(settings, models=_model_list(args.models),
                             verbose=True, **_executor_kwargs(args))
        _print_tables("Table II (measured)", results)
    elif args.command == "table3":
        results = run_table3(settings, verbose=True,
                             **_executor_kwargs(args))
        _print_tables("Table III (measured)", results)
    elif args.command == "ablation":
        noise = (uniform_noise(args.eta) if args.noise == "uniform"
                 else class_dependent_noise())
        results = run_ablation(noise, settings, verbose=True,
                               **_executor_kwargs(args))
        _print_tables(f"Ablations ({noise.label}, measured)", results)
    elif args.command == "latency":
        latencies = run_latency(settings, verbose=True)
        print()
        base = min(latencies.values())
        for model, seconds in sorted(latencies.items(), key=lambda kv: -kv[1]):
            print(f"{model:10s} {seconds:8.2f}s ({seconds / base:4.1f}x)")
    elif args.command == "sweep":
        from .experiments import sweep_config_field

        values = [_parse_value(v) for v in args.values]
        results = sweep_config_field(args.field, values, settings=settings,
                                     dataset=args.dataset,
                                     noise=uniform_noise(args.eta),
                                     verbose=True)
        _print_tables(f"sweep over {args.field}", results, paper=False)
    elif args.command == "join":
        from .parallel import run_worker

        print(f"joining sweep at {args.address} ...")
        completed = run_worker(args.address, worker_id=args.id,
                               max_cells=args.max_cells)
        print(f"completed {completed} cell(s)")
    elif args.command == "analyze":
        from .analysis import analyze_cache

        print(analyze_cache(args.cache_dir, metric=args.metric,
                            target=args.target, fmt=args.format,
                            alpha=args.alpha, measure=args.measure))
    elif args.command == "demo":
        _run_demo(args, settings)
    elif args.command == "save":
        _run_save(args, settings)
    elif args.command == "stream":
        return _run_stream(args)
    elif args.command == "train":
        return _run_train(args, settings)
    elif args.command == "lint-graph":
        from .nn.debug.lint import lint_demo_graph

        issues = lint_demo_graph(verbose=True)
        return 2 if any(i.severity == "error" for i in issues) else 0
    elif args.command == "tail":
        from .train import tail_journal

        tail_journal(args.journal, n=args.lines, phase=args.phase,
                     follow=args.follow)
    elif args.command == "serve":
        from .serve import ServeConfig, run_server

        config = ServeConfig(
            host=args.host, port=args.port, workers=args.workers,
            max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue, rate_limit_rps=args.rate_limit_rps,
            rate_limit_burst=args.rate_limit_burst,
            score_timeout_s=args.score_timeout,
            precision=args.precision, verbose=True)
        run_server(args.model, config)
    elif args.command == "quantize":
        _run_quantize(args)
    elif args.command == "distill":
        _run_distill(args, settings)
    return 0


def _parse_value(raw: str):
    """Best-effort literal parsing: float, int, bool, else string."""
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        as_float = float(raw)
    except ValueError:
        return raw
    return int(as_float) if as_float.is_integer() and "." not in raw \
        else as_float


def _run_demo(args, settings: ExperimentSettings) -> None:
    from . import CLFD
    from .data import apply_uniform_noise, make_dataset
    from .metrics import evaluate_detector

    rng = np.random.default_rng(0)
    train, test = make_dataset(args.dataset, rng, scale=settings.scale)
    apply_uniform_noise(train, eta=args.eta, rng=rng)
    print(f"training CLFD on {args.dataset} "
          f"(scale={settings.scale}, eta={args.eta}) ...")
    model = CLFD(settings.clfd_config()).fit(train,
                                             rng=np.random.default_rng(0))
    quality = model.correction_quality(train)
    print(f"label corrector: TPR={quality['tpr']:.1f}% "
          f"TNR={quality['tnr']:.1f}%")
    labels, scores = model.predict(test)
    metrics = evaluate_detector(test.labels(), labels, scores)
    print(", ".join(f"{k}={v:.1f}%" for k, v in metrics.items()))


def _run_stream(args) -> int:
    """`repro stream`: online scoring + drift detection + re-correction."""
    import pathlib

    from .stream import (EventLog, StreamConfig, StreamProcessor,
                         compare_with_frozen, synthesize_drifting_events,
                         write_events)

    if args.events:
        log = EventLog(args.events)
    else:
        path = pathlib.Path(args.workdir) / "events.jsonl"
        if path.exists() and args.resume:
            log = EventLog(path)
        else:
            print(f"synthesizing a {args.drift!r}-drift {args.dataset} "
                  f"stream ({args.sessions} sessions) ...")
            events = synthesize_drifting_events(
                args.dataset, n_sessions=args.sessions, drift=args.drift,
                eta=0.1, eta_after=0.45, malicious_rate=0.1,
                malicious_rate_after=0.45,
                max_session_length=args.max_session_len,
                rng=args.stream_seed)
            log = write_events(path, events)
    config = StreamConfig(
        window_size=args.window_size, session_gap=args.session_gap,
        max_session_len=args.max_session_len,
        recorrect_windows=args.recorrect_windows,
        head_epochs=args.head_epochs,
        max_recorrections=args.max_recorrections)
    with StreamProcessor(args.model, args.workdir, config=config,
                         seed=args.seed, resume=args.resume) as proc:
        print(f"{'window':>6} {'sessions':>8} {'oov':>6} {'drift':>7} "
              f"{'trigger':>9} {'gen':>4}")
        summaries = proc.run_log(log, max_windows=args.max_windows)
        for s in summaries:
            reading = s["reading"]
            flag = "  ALARM" if s["alarm"] else ""
            swap = "  -> re-corrected + hot-swapped" if s["recorrected"] \
                else ""
            print(f"{s['window']:>6} {s['n_sessions']:>8} "
                  f"{s['oov_rate']:>6.3f} {reading.drift_score:>7.3f} "
                  f"{reading.trigger or '-':>9} {s['generation']:>4}"
                  f"{flag}{swap}")
        print(f"processed {proc.windows_processed} windows, "
              f"{proc.recorrections} re-correction(s), serving "
              f"generation {proc.model_generation} "
              f"({proc.current_archive.name})")
        if args.max_windows is not None \
                and len(summaries) >= args.max_windows:
            print(f"stopped after --max-windows {args.max_windows}; "
                  f"rerun with --resume to continue from offset "
                  f"{proc.next_offset}")
        if args.compare_frozen:
            if proc.recorrections:
                auc = compare_with_frozen(proc.records, args.model)
                print(f"post-swap AUC over {auc['n_sessions']} sessions: "
                      f"live={auc['live_auc']:.1f}% "
                      f"frozen={auc['frozen_auc']:.1f}%")
            else:
                print("no re-correction happened; nothing to compare")
    return 0


def _run_train(args, settings: ExperimentSettings) -> int:
    """`repro train`: a checkpointed, resumable single CLFD run.

    Exit codes: 0 on completion, 3 when a --stop-after crash drill
    interrupted the run (checkpoints are on disk; rerun with --resume).
    """
    import json
    import os

    from . import CLFD
    from .core import model_fingerprint, save_clfd
    from .data import apply_uniform_noise, make_dataset
    from .metrics import evaluate_detector
    from .train import TrainRun, TrainingInterrupted, seed_everything

    data_rng = seed_everything(args.seed)
    train, test = make_dataset(args.dataset, data_rng, scale=settings.scale)
    apply_uniform_noise(train, eta=args.eta, rng=data_rng)
    journal = args.journal or os.path.join(args.checkpoint_dir,
                                           "journal.jsonl")
    run = TrainRun(args.checkpoint_dir, journal=journal,
                   resume=args.resume, snapshot_every=args.snapshot_every,
                   stop_after=args.stop_after, profile=args.profile)
    mode = "resuming" if args.resume else "training"
    print(f"{mode} CLFD on {args.dataset} (scale={settings.scale}, "
          f"eta={args.eta}, seed={args.seed}) ...")
    model = CLFD(settings.clfd_config())
    try:
        model.fit(train, rng=seed_everything(args.seed), run=run)
    except TrainingInterrupted as exc:
        print(f"interrupted after {exc.tag!r}; checkpoints in "
              f"{args.checkpoint_dir} — rerun with --resume to continue")
        return 3
    labels, scores = model.predict(test)
    metrics = evaluate_detector(test.labels(), labels, scores)
    print(", ".join(f"{k}={v:.1f}%" for k, v in metrics.items()))
    if args.metrics_out:
        payload = {
            "dataset": args.dataset, "eta": args.eta, "seed": args.seed,
            "scale": settings.scale,
            "metrics": {k: float(v) for k, v in metrics.items()},
            "params_sha256": model_fingerprint(model),
        }
        with open(args.metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_out}")
    if args.out:
        path = save_clfd(model, args.out)
        print(f"saved model to {path}")
    return 0


def _run_quantize(args) -> None:
    import os

    from .quant import quantize_archive

    path = quantize_archive(args.model, args.out, precision=args.precision)
    before = os.path.getsize(args.model if os.path.exists(args.model)
                             else f"{args.model}.npz")
    after = os.path.getsize(path)
    print(f"quantized {args.model} -> {path} ({args.precision}, "
          f"{before / 1024:.1f} KiB -> {after / 1024:.1f} KiB); serve it: "
          f"python -m repro serve --model {path}")


def _run_distill(args, settings: ExperimentSettings) -> None:
    from .core import load_clfd, save_clfd
    from .data import make_dataset
    from .quant import distill_student

    rng = np.random.default_rng(args.seed)
    train, _ = make_dataset(args.dataset, rng, scale=settings.scale)
    teacher = load_clfd(args.model)
    print(f"distilling a 1-layer student from {args.model} on "
          f"{args.dataset} (scale={settings.scale}) ...")
    student = distill_student(teacher, train, epochs=args.epochs,
                              rng=np.random.default_rng(args.seed))
    path = save_clfd(student, args.out)
    print(f"saved student to {path} (quantize it: python -m repro "
          f"quantize --model {path} --out {path.stem}-int8)")


def _run_save(args, settings: ExperimentSettings) -> None:
    from . import CLFD
    from .core import save_clfd
    from .data import apply_uniform_noise, make_dataset

    rng = np.random.default_rng(0)
    train, _ = make_dataset(args.dataset, rng, scale=settings.scale)
    apply_uniform_noise(train, eta=args.eta, rng=rng)
    print(f"training CLFD on {args.dataset} "
          f"(scale={settings.scale}, eta={args.eta}) ...")
    model = CLFD(settings.clfd_config()).fit(train,
                                             rng=np.random.default_rng(0))
    path = save_clfd(model, args.out)
    print(f"saved model to {path} "
          f"(serve it: python -m repro serve --model {path})")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

