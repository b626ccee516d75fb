"""``stream``: a drifting event stream replayed through ``StreamProcessor``.

A ``archetype+noise`` CERT stream is synthesized with the parameters
``repro stream`` uses and replayed from memory as fast as possible, one
event per ``process_events`` call, then ``finish()``; the processor
uses the CLI's ``StreamConfig`` defaults in a fresh state directory.
This is the only workload that mixes scoring with writes: every window
rewrites the checkpoint and appends to the journal, and drift alarms
trigger re-corrections with hot reloads of the serving engine.
"""

from __future__ import annotations

import hashlib
import json
import time

from ..host import self_peak_rss_mb
from ..stats import percentile, quantile
from ..trace import summarize
from . import SETUP_REPEATS, Context, Result, Setup

SESSIONS_PER_SECOND = 600  # --seconds 10 gives 6000 sessions, ~65k events

# Span name -> per-layer metric (total self seconds over the run).
_LAYERS = {
    "stream.window": "stream.window_s",
    "stream.score": "stream.score_s",
    "stream.drift": "stream.drift_s",
    "stream.journal": "stream.journal_s",
    "stream.checkpoint": "stream.checkpoint_s",
    "stream.recorrect": "stream.recorrect_s",
    "stream.reload": "stream.reload_s",
}


def _stream_config():
    """The ``repro stream`` defaults (``StreamConfig`` as the CLI builds it)."""
    from repro.cli import build_parser
    from repro.stream import StreamConfig

    args = build_parser().parse_args(
        ["stream", "--model", "-", "--workdir", "-"])
    return StreamConfig(
        window_size=args.window_size, session_gap=args.session_gap,
        max_session_len=args.max_session_len,
        recorrect_windows=args.recorrect_windows,
        head_epochs=args.head_epochs,
        max_recorrections=args.max_recorrections), args


def _install(tracer) -> None:
    from repro.serve.engine import InferenceEngine
    from repro.stream import processor
    from repro.stream.drift import DriftMonitor
    from repro.stream.window import SessionWindower
    from repro.train.journal import MetricJournal

    tracer.wrap(SessionWindower, "process", "stream.window")
    tracer.wrap(InferenceEngine, "score_many", "stream.score")
    tracer.wrap(DriftMonitor, "observe", "stream.drift")
    tracer.wrap(MetricJournal, "log", "stream.journal")
    tracer.wrap(processor.StreamProcessor, "_save_checkpoint",
                "stream.checkpoint")
    tracer.wrap(processor, "recorrect_model", "stream.recorrect")
    tracer.wrap(InferenceEngine, "reload", "stream.reload")


def run(ctx: Context) -> Result:
    from repro.metrics import auc_roc
    from repro.stream import StreamProcessor, synthesize_drifting_events
    from repro.train import deterministic_entries, read_journal

    res = Result()
    config, cli = _stream_config()
    n_sessions = SESSIONS_PER_SECOND * ctx.seconds

    def build(i: int):
        events = synthesize_drifting_events(
            cli.dataset, n_sessions=n_sessions, drift=cli.drift,
            eta=0.1, eta_after=0.45, malicious_rate=0.1,
            malicious_rate_after=0.45,
            max_session_length=cli.max_session_len, rng=ctx.seed)
        proc = StreamProcessor(ctx.archive, ctx.workdir / f"state{i}",
                               config=config, seed=ctx.seed)
        return events, proc

    setup = Setup(build, release=lambda built: built[1].close())
    events, proc = setup.kept()
    res.params = {"dataset": cli.dataset, "drift": cli.drift,
                  "sessions": n_sessions, "events": len(events),
                  "config": {k: getattr(config, k) for k in (
                      "window_size", "session_gap", "max_session_len",
                      "recorrect_windows", "head_epochs")}}

    tracer = ctx.tracer
    if tracer is not None:
        _install(tracer)
    window_ms: list[float] = []
    try:
        with proc:
            start = time.perf_counter()
            for event in events:
                call = tracer.open("stream.process_events") if tracer else None
                t0 = time.perf_counter()
                emitted = proc.process_events([event])
                if emitted:
                    window_ms.append((time.perf_counter() - t0) * 1000.0)
                if call is not None:
                    call.trace = emitted[-1]["window"] if emitted else None
                    tracer.close(call)
            call = tracer.open("stream.finish") if tracer else None
            t0 = time.perf_counter()
            if proc.finish():
                window_ms.append((time.perf_counter() - t0) * 1000.0)
            if call is not None:
                tracer.close(call)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    records = proc.records
    windows, recorrections = proc.windows_processed, proc.recorrections
    checkpoint = proc.workdir / "checkpoint.json"
    journal = proc.workdir / "journal.jsonl"
    window_entries = [e for e in read_journal(journal)
                      if e.get("event") == "window"]
    alarms = sum(1 for e in window_entries if e["alarm"])

    res.attempted = len(events)
    res.metric("events_per_s", len(events) / elapsed, len(events))
    res.metric("window_p50_ms", quantile(window_ms, 0.5), len(window_ms))
    p95 = percentile(window_ms, 0.95)
    if p95 is not None:
        res.metric("window_p95_ms", p95, len(window_ms))
    # Live AUC after the first hot swap, from the processor's records
    # (compare_with_frozen re-scores through a bounded queue and refuses
    # streams this long).  A stream too short to re-correct falls back
    # to every record; the re-correction check then fails the run.
    scored = [r for r in records if r["score"] is not None]
    live = [r for r in scored if r["model_generation"] >= 1] or scored
    res.metric("auc", auc_roc([r["label"] for r in live],
                              [r["score"] for r in live]), len(live))
    res.metric("peak_rss_mb", self_peak_rss_mb(), 1)
    res.metric("setup_s", setup.finish(), SETUP_REPEATS)

    # Window entries carry no wall clock, so they join the journal's
    # deterministic training entries in the cross-run comparison.
    entries = deterministic_entries(journal) + window_entries
    res.extra["determinism"] = {
        "windows": windows, "alarms": alarms, "recorrections": recorrections,
        "journal_sha256": hashlib.sha256(
            json.dumps(entries).encode()).hexdigest()}
    res.check("every_session_scored",
              len({r["entity"] for r in records}) == n_sessions)
    res.check("each_session_scored_once",
              len(records) == len({r["session_id"] for r in records}))
    res.check("recorrected_at_least_once", recorrections >= 1)
    res.check("scores_finite", all(r["score"] is not None for r in records))

    if tracer is not None:
        spans = summarize(tracer.spans)
        for span_name, layer in _LAYERS.items():
            res.layer(layer, spans.get(span_name, {"self": 0.0})["self"])
        res.layer("stream.checkpoint_bytes", checkpoint.stat().st_size)
        res.layer("stream.windows", windows)
        res.layer("stream.alarms", alarms)
        res.layer("stream.recorrections", recorrections)
        inner = sum(s["self"] for name, s in spans.items()
                    if name in _LAYERS)
        res.extra["trace_coverage"] = inner / elapsed
    return res
