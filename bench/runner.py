"""One measured run (``measure``) and the multi-round runs (``run``)."""

from __future__ import annotations

import functools
import importlib
import json
import os
import shutil
import subprocess
import sys
import time

from . import WORK
from .host import fingerprint
from .spec import (LAYER_METRICS, RECORD_METRICS, gate_metrics,
                   load_benchmark_json)
from .stats import quartiles
from .trace import Tracer

__all__ = ["measure", "contract_line", "run_rounds"]


def _workload(name: str):
    if name in ("serve", "serve_cluster"):
        serve = importlib.import_module("bench.workloads.serve")
        return functools.partial(serve.run,
                                 workers=2 if name == "serve_cluster" else 1)
    return importlib.import_module(f"bench.workloads.{name}").run


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload once in this process; returns its record.

    The prepare step comes first for every workload, so that whichever
    run a checkout sees first trains the serving archive, untimed.
    """
    from .workloads import Context, serving_archive

    host = fingerprint(seed, {"workload": workload, "seconds": seconds,
                              "trace": trace})
    archive = serving_archive()
    workdir = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    try:
        res = _workload(workload)(Context(seed, seconds, workdir, archive,
                                          tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    trace_path = None
    if tracer is not None:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        trace_path = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(trace_path)
    stray = [name for name in res.metrics
             if workload not in RECORD_METRICS[name].workloads]
    if stray:
        raise RuntimeError(f"{workload} reported undeclared metrics {stray}")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "params": res.params, "host": host,
        "wall_s": time.perf_counter() - started,
        "metrics": res.metrics, "layers": res.layers, "checks": res.checks,
        "correct": bool(res.checks) and all(res.checks.values()),
        "attempted": res.attempted, "failed": res.failed,
        "extra": res.extra,
        "trace_file": str(trace_path) if trace_path else None,
    }


def contract_line(record: dict) -> dict:
    """The one-line result ``BENCHMARK.json``'s command prints."""
    spec = load_benchmark_json()
    if record["trace"]:
        values = {m["name"]: record["layers"].get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = gate_metrics(record["workload"], record)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


# ----------------------------------------------------------------------
# Multi-round runs
# ----------------------------------------------------------------------
def _subprocess_record(workload: str, seed: int, seconds: int,
                       trace: bool) -> dict:
    """One round in a fresh interpreter, so no state leaks between runs."""
    from .workloads import repro_env

    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"record-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, "-m", "bench", "measure", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--record", str(out)]
    try:
        subprocess.run(cmd, env=repro_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=900)
        with open(out) as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def summarize_rounds(records: list[dict]) -> dict:
    """Per metric: values over rounds, quartiles and sample counts."""
    summary = {}
    for name in (n for n in RECORD_METRICS if n in records[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in records]
        q1, q2, q3 = quartiles(values)
        summary[name] = {"unit": records[0]["metrics"][name]["unit"],
                         "values": values, "median": q2, "q1": q1, "q3": q3,
                         "n": [r["metrics"][name]["n"] for r in records]}
    return summary


def _cross_checks(workload: str, records: list[dict],
                  traced: dict | None) -> dict[str, bool]:
    """Checks that span runs: same seed, same outputs."""
    runs = records + ([traced] if traced else [])
    key = {"fit": "fingerprints", "serve": "score_digest",
           "serve_cluster": "score_digest", "stream": "determinism",
           "grid": "metrics_digest"}[workload]
    first = runs[0]["extra"][key]
    return {f"{key}_identical_across_runs":
            all(r["extra"][key] == first for r in runs)}


def run_rounds(workloads: list[str], seed: int, rounds: int, seconds: int,
               trace: bool, emit=print) -> dict:
    """Every workload for ``rounds`` untraced rounds (+1 traced).

    Rounds are interleaved across workloads (round 1 of each, then
    round 2, ...): the host's speed drifts over minutes, and spreading
    each workload's rounds over the whole run samples that drift instead
    of one stretch of it.
    """
    result = {"host": fingerprint(seed, {"rounds": rounds,
                                         "seconds": seconds,
                                         "trace": trace}),
              "seed": seed, "rounds": rounds, "seconds": seconds,
              "workloads": {}}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for r in range(rounds):
        for workload in workloads:
            record = _subprocess_record(workload, seed, seconds, False)
            runs[workload].append(record)
            emit(f"{workload} round {r + 1}/{rounds}: "
                 f"{record['wall_s']:.1f}s correct={record['correct']}")
    for workload, records in runs.items():
        traced = (_subprocess_record(workload, seed, seconds, True)
                  if trace else None)
        summary = summarize_rounds(records)
        entry = {"runs": records, "summary": summary, "traced": traced,
                 "cross_checks": _cross_checks(workload, records, traced)}
        if traced is not None:
            entry["tracing_overhead"] = {
                name: traced["metrics"][name]["value"] - s["median"]
                for name, s in summary.items()
                if name in traced["metrics"]}
        result["workloads"][workload] = entry
    if "serve" in workloads and "serve_cluster" in workloads:
        digests = {w: result["workloads"][w]["runs"][0]["extra"]["score_digest"]
                   for w in ("serve", "serve_cluster")}
        result["workloads"]["serve_cluster"]["cross_checks"][
            "scores_equal_serve"] = digests["serve"] == digests["serve_cluster"]
    result["correct"] = all(
        rec["correct"]
        for entry in result["workloads"].values()
        for rec in entry["runs"] + ([entry["traced"]] if entry["traced"]
                                    else [])
    ) and all(ok for entry in result["workloads"].values()
              for ok in entry["cross_checks"].values())
    return result


def format_result(result: dict) -> str:
    """Every end-to-end metric by name with its unit, per workload."""
    lines = []
    for workload, entry in result["workloads"].items():
        lines.append(f"== {workload} ({len(entry['runs'])} round(s))")
        for name, s in entry["summary"].items():
            spread = (f"  [q1 {s['q1']:.4g}, q3 {s['q3']:.4g}]"
                      if len(s["values"]) > 1 else "")
            lines.append(f"  {name:16s} {s['median']:12.4g} {s['unit']:9s}"
                         f" n={s['n'][0]}{spread}")
        traced = entry["traced"]
        failed = [name for rec in entry["runs"] + ([traced] if traced else [])
                  for name, ok in rec["checks"].items() if not ok]
        failed += [name for name, ok in entry["cross_checks"].items()
                   if not ok]
        lines.append("  checks: " + ("all passed" if not failed
                                     else "FAILED " + ", ".join(failed)))
        if traced is not None:
            lines.append("  per-layer (traced run):")
            for name, value in traced["layers"].items():
                lines.append(f"    {name:30s} {value:12.4g} "
                             f"{LAYER_METRICS[name].unit}")
            if "trace_coverage" in traced["extra"]:
                lines.append(f"    self-time coverage of the end-to-end "
                             f"time: {traced['extra']['trace_coverage']:.1%}")
            for name, delta in entry["tracing_overhead"].items():
                lines.append(f"    tracing overhead {name:16s} {delta:+.4g}")
    return "\n".join(lines)
