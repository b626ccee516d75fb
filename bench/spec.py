"""Metric definitions shared by the runner, ``compare`` and the tests.

Two views of the same runs:

* **Record metrics** (:data:`RECORD_METRICS`) are what ``python -m
  bench run`` prints and ``python -m bench compare`` judges: thirteen
  end-to-end metrics, each reported by the workloads it applies to,
  with the regression bound ``compare`` uses.
* **Gate metrics** are the ``end_to_end`` list of ``BENCHMARK.json``:
  three metrics every workload reports, so that one run of any
  workload yields all of them (see :func:`gate_metrics`).

Per-layer metrics come from traced runs; every workload reports every
one of them, with 0 for layers it does not exercise.
"""

from __future__ import annotations

import dataclasses
import json

from . import ROOT

WORKLOADS = ("fit", "serve", "serve_cluster", "stream", "grid")


@dataclasses.dataclass(frozen=True)
class RecordMetric:
    unit: str
    better: str            # "lower" | "higher"
    bound: float           # see ``kind``
    kind: str              # "rel": share of the base median; "abs": in
                           # the metric's own unit; "zero": any worsening
    workloads: tuple[str, ...]


_ALL = ("fit", "serve", "serve_cluster", "stream", "grid")
_SERVING = ("serve", "serve_cluster")

# Bounds are 10% for timings and rates unless five same-seed runs on the
# reference host (2 vCPUs) spread wider; a widened bound names the widest
# quartile spread (IQR over median) seen in four sets of five runs.
RECORD_METRICS: dict[str, RecordMetric] = {
    "setup_s": RecordMetric("s", "lower", 0.45, "rel", _ALL),  # 43% serve
    "fit_s": RecordMetric("s", "lower", 0.35, "rel", ("fit",)),  # 33%
    # Serving workloads score labelled test sessions, so a change that
    # alters served scores shows here too.
    "auc": RecordMetric("%", "higher", 0.2, "abs", _ALL),
    "f1": RecordMetric("%", "higher", 1.0, "abs", ("fit",)),
    # serve 17%; the cluster's open-loop median is bimodal (up to 110%)
    # and reads as unresolved rather than widening the bound further.
    "req_p50_ms": RecordMetric("ms", "lower", 0.20, "rel", _SERVING),
    "req_p95_ms": RecordMetric("ms", "lower", 0.25, "rel", _SERVING),  # 23%
    "rps": RecordMetric("req/s", "higher", 0.10, "rel", _SERVING),
    "fail_ratio": RecordMetric("share", "lower", 0.0, "zero",
                               ("serve", "serve_cluster", "grid")),
    "events_per_s": RecordMetric("events/s", "higher", 0.35, "rel",
                                 ("stream",)),  # 32%
    "window_p50_ms": RecordMetric("ms", "lower", 0.25, "rel",
                                  ("stream",)),  # 25%
    "window_p95_ms": RecordMetric("ms", "lower", 0.40, "rel",
                                  ("stream",)),  # 39%
    "sweep_s": RecordMetric("s", "lower", 0.25, "rel", ("grid",)),  # 25%
    "peak_rss_mb": RecordMetric("MB", "lower", 0.10, "rel", _ALL),
}


@dataclasses.dataclass(frozen=True)
class LayerMetric:
    unit: str
    better: str
    workloads: tuple[str, ...]
    moves: tuple[str, ...]  # the record metrics a change here should move


_FIT = (("fit",), ("fit_s",))
_SERVE = (_SERVING, ("req_p50_ms", "req_p95_ms", "rps"))
_CLUSTER = (("serve_cluster",), ("req_p50_ms", "req_p95_ms", "rps"))
_STREAM = (("stream",), ("events_per_s", "window_p50_ms", "window_p95_ms"))
_GRID = (("grid",), ("sweep_s",))

# The five ops with the most backward time in a baseline ``fit``.
TOP_BACKWARD_OPS = ("fused_lstm_sequence", "sum", "__mul__", "__add__",
                    "matmul")

LAYER_METRICS: dict[str, LayerMetric] = {
    "data.word2vec_s": LayerMetric("s", "lower", *_FIT),
    "core.corrector.ssl_s": LayerMetric("s", "lower", *_FIT),
    "core.corrector.head_s": LayerMetric("s", "lower", *_FIT),
    "core.corrector.correct_s": LayerMetric("s", "lower", *_FIT),
    "core.detector.supcon_s": LayerMetric("s", "lower", *_FIT),
    "core.detector.head_s": LayerMetric("s", "lower", *_FIT),
    "train.batches": LayerMetric("count", "lower", *_FIT),
    "nn.nodes": LayerMetric("count", "lower", *_FIT),
    "nn.backward_s": LayerMetric("s", "lower", *_FIT),
    **{f"nn.op.{op}.backward_s": LayerMetric("s", "lower", *_FIT)
       for op in TOP_BACKWARD_OPS},
    "serve.http.parse_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.engine.submit_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.batcher.wait_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.forward_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.batch_fill": LayerMetric("share", "higher", *_SERVE),
    "serve.respond_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.server_p50_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.edge_ms": LayerMetric("ms", "lower", *_SERVE),
    "serve.cpu_ms_per_req": LayerMetric("ms", "lower", *_SERVE),
    "serve.cluster.pipe_ms": LayerMetric("ms", "lower", *_CLUSTER),
    "serve.cluster.shard_skew": LayerMetric("ratio", "lower", *_CLUSTER),
    "stream.window_s": LayerMetric("s", "lower", *_STREAM),
    "stream.score_s": LayerMetric("s", "lower", *_STREAM),
    "stream.drift_s": LayerMetric("s", "lower", *_STREAM),
    "stream.journal_s": LayerMetric("s", "lower", *_STREAM),
    "stream.checkpoint_s": LayerMetric("s", "lower", *_STREAM),
    "stream.checkpoint_bytes": LayerMetric("B", "lower", *_STREAM),
    "stream.recorrect_s": LayerMetric("s", "lower", *_STREAM),
    "stream.reload_s": LayerMetric("s", "lower", *_STREAM),
    "stream.windows": LayerMetric("count", "higher", *_STREAM),
    "stream.alarms": LayerMetric("count", "lower", *_STREAM),
    "stream.recorrections": LayerMetric("count", "lower", *_STREAM),
    "parallel.cell_s_p50": LayerMetric("s", "lower", *_GRID),
    "parallel.cell_inflation": LayerMetric("ratio", "lower", *_GRID),
    "parallel.overhead_s": LayerMetric("s", "lower", *_GRID),
    "parallel.cpu_util": LayerMetric("share", "higher", *_GRID),
    "parallel.warm_s": LayerMetric("s", "lower", *_GRID),
    "parallel.cache_put_s": LayerMetric("s", "lower", *_GRID),
    "parallel.retries": LayerMetric("count", "lower", *_GRID),
}


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def gate_metrics(workload: str, record: dict) -> dict[str, float]:
    """Project one run's record onto the ``BENCHMARK.json`` end-to-end list.

    ``ops_per_s`` is the workload's unit of work per second: fits
    (``fit``), closed-loop requests (``serve``, ``serve_cluster``),
    events (``stream``) or cold cells (``grid``).

    Latency and AUC stay out of this list: open-loop latency on the
    reference host is bimodal (a ~40 ms delayed-ACK stall hits a varying
    share of requests, so the cluster's median jumps between ~17 and
    ~54 ms), and AUC differs 8-20% between seeds because the inputs
    differ.  ``compare`` judges both on same-seed rounds.
    """
    m = {name: entry["value"] for name, entry in record["metrics"].items()}
    ops = {"fit": lambda: 1.0 / m["fit_s"],
           "serve": lambda: m["rps"],
           "serve_cluster": lambda: m["rps"],
           "stream": lambda: m["events_per_s"],
           "grid": lambda: record["params"]["cells"] / m["sweep_s"]}
    return {"setup_s": m["setup_s"], "ops_per_s": ops[workload](),
            "peak_rss_mb": m["peak_rss_mb"]}
