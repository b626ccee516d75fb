"""Serving metrics: request counters, batch histogram, latency quantiles.

A single :class:`ServingMetrics` instance is shared by the HTTP handler
threads, the micro-batcher worker and the engine, so every method is
guarded by one lock (operations are all O(1) appends/increments).

Latency quantiles come from a bounded reservoir of the most recent
request latencies; forward-pass wall time is accounted separately
through the engine's :class:`repro.nn.profiler.Profiler` timer regions,
which lets ``/v1/metrics`` split queueing delay from model compute.

Cluster aggregation: each scoring worker process keeps its own
:class:`ServingMetrics`; the front-end fans out snapshot requests and
merges them with :func:`merge_snapshots` (counters and histograms sum;
latency quantiles are re-derived per worker, so the merged view reports
their per-worker extremes).  :func:`render_snapshot` turns either
engine's snapshot into Prometheus text; a cluster snapshot adds its
gauges (workers alive, shard queue depths, reload generation) and
per-worker counter series.
"""

from __future__ import annotations

import collections
import threading

import numpy as np

__all__ = ["ServingMetrics", "merge_snapshots", "render_snapshot"]

_RESERVOIR = 4096


class ServingMetrics:
    """Thread-safe counters + histograms behind ``/v1/metrics``."""

    def __init__(self, reservoir: int = _RESERVOIR):
        self._lock = threading.Lock()
        self.requests_total = 0
        self.sessions_total = 0
        self.errors_total: collections.Counter = collections.Counter()
        # batch size -> number of batches scored at that size
        self.batch_sizes: collections.Counter = collections.Counter()
        self.batch_seconds_total = 0.0
        self._latencies: collections.deque = collections.deque(
            maxlen=reservoir)
        # Named gauges set by co-located components (e.g. the stream
        # processor's windows/drift/alarm/generation counters) so they
        # surface on this engine's /v1/metrics without new plumbing.
        self.gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request(self, latency_s: float, sessions: int = 1,
                       error: str | None = None) -> None:
        with self._lock:
            self.requests_total += 1
            if error is not None:
                self.errors_total[error] += 1
            else:
                self.sessions_total += sessions
            self._latencies.append(latency_s)

    def record_batch(self, size: int, seconds: float) -> None:
        with self._lock:
            self.batch_sizes[size] += 1
            self.batch_seconds_total += seconds

    def set_gauge(self, name: str, value: float) -> None:
        """Publish/overwrite a named gauge on this metrics endpoint."""
        with self._lock:
            self.gauges[name] = float(value)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def latency_quantiles(self) -> dict[str, float]:
        with self._lock:
            sample = np.array(self._latencies, dtype=np.float64)
        if sample.size == 0:
            return {"p50": 0.0, "p99": 0.0, "mean": 0.0}
        return {
            "p50": float(np.quantile(sample, 0.50)),
            "p99": float(np.quantile(sample, 0.99)),
            "mean": float(sample.mean()),
        }

    def snapshot(self, regions: dict[str, float] | None = None) -> dict:
        """One coherent dict of everything (the JSON view)."""
        quantiles = self.latency_quantiles()
        with self._lock:
            mean_batch = (
                sum(size * n for size, n in self.batch_sizes.items())
                / max(sum(self.batch_sizes.values()), 1)
            )
            snap = {
                "requests_total": self.requests_total,
                "sessions_total": self.sessions_total,
                "errors_total": dict(self.errors_total),
                "batch_size_histogram": {
                    str(size): n
                    for size, n in sorted(self.batch_sizes.items())
                },
                "batches_total": sum(self.batch_sizes.values()),
                "mean_batch_size": mean_batch,
                "batch_seconds_total": self.batch_seconds_total,
                "latency_seconds": quantiles,
            }
            if self.gauges:
                snap["gauges"] = dict(self.gauges)
        if regions:
            snap["profile_regions_seconds"] = dict(regions)
        return snap


# ----------------------------------------------------------------------
# Snapshot-level operations (plain dicts, usable across process borders)
# ----------------------------------------------------------------------
def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum worker snapshots into one combined view.

    Counters, error/batch histograms and batch seconds are additive.
    Latency quantiles are *not* (each worker keeps its own reservoir):
    the merged view reports the worst per-worker p50/p99 and the
    session-weighted mean, which is the conservative cluster-level
    answer for an SLO check.
    """
    merged: dict = {
        "requests_total": 0, "sessions_total": 0,
        "errors_total": collections.Counter(),
        "batch_size_histogram": collections.Counter(),
        "batches_total": 0, "batch_seconds_total": 0.0,
        "queue_depth": 0,
    }
    weighted_mean = 0.0
    weight = 0
    p50 = p99 = 0.0
    for snap in snapshots:
        merged["requests_total"] += snap.get("requests_total", 0)
        merged["sessions_total"] += snap.get("sessions_total", 0)
        merged["errors_total"].update(snap.get("errors_total", {}))
        merged["batch_size_histogram"].update(
            snap.get("batch_size_histogram", {}))
        merged["batches_total"] += snap.get("batches_total", 0)
        merged["batch_seconds_total"] += snap.get("batch_seconds_total", 0.0)
        merged["queue_depth"] += snap.get("queue_depth", 0)
        latency = snap.get("latency_seconds", {})
        p50 = max(p50, latency.get("p50", 0.0))
        p99 = max(p99, latency.get("p99", 0.0))
        n = snap.get("requests_total", 0)
        weighted_mean += latency.get("mean", 0.0) * n
        weight += n
    merged["errors_total"] = dict(merged["errors_total"])
    merged["batch_size_histogram"] = {
        str(k): v for k, v in sorted(
            merged["batch_size_histogram"].items(), key=lambda kv: int(kv[0]))
    }
    total_sessions = sum(
        int(size) * n for size, n in merged["batch_size_histogram"].items())
    merged["mean_batch_size"] = total_sessions / max(merged["batches_total"],
                                                     1)
    merged["latency_seconds"] = {
        "p50": p50, "p99": p99,
        "mean": weighted_mean / weight if weight else 0.0,
    }
    return merged


def render_snapshot(snap: dict) -> str:
    """Render an engine's ``metrics_snapshot()`` as Prometheus text.

    The snapshot's ``generation`` / ``queue_depth`` become gauges next to
    any :meth:`ServingMetrics.set_gauge` ones, and ``precision`` an
    info-style series.  A cluster snapshot also carries a ``cluster``
    gauge block and per-worker snapshots under ``workers``.
    """
    lines = [
        "# TYPE repro_serve_requests_total counter",
        f"repro_serve_requests_total {snap['requests_total']}",
        "# TYPE repro_serve_sessions_total counter",
        f"repro_serve_sessions_total {snap['sessions_total']}",
        "# TYPE repro_serve_errors_total counter",
    ]
    for code, n in sorted(snap["errors_total"].items()):
        lines.append(f'repro_serve_errors_total{{code="{code}"}} {n}')
    lines.append("# TYPE repro_serve_batch_size histogram")
    cumulative = 0
    for size, n in snap["batch_size_histogram"].items():
        cumulative += n
        lines.append(
            f'repro_serve_batch_size_bucket{{le="{size}"}} {cumulative}')
    lines.append(f"repro_serve_batch_size_count {snap['batches_total']}")
    lines.append("# TYPE repro_serve_batch_seconds_total counter")
    lines.append(
        f"repro_serve_batch_seconds_total {snap['batch_seconds_total']:.6f}")
    lines.append("# TYPE repro_serve_latency_seconds summary")
    for q, key in (("0.5", "p50"), ("0.99", "p99")):
        lines.append(
            f'repro_serve_latency_seconds{{quantile="{q}"}} '
            f"{snap['latency_seconds'][key]:.6f}")
    for name, seconds in sorted(
            snap.get("profile_regions_seconds", {}).items()):
        lines.append(
            f'repro_serve_profile_region_seconds{{region="{name}"}} '
            f"{seconds:.6f}")
    gauges = dict(snap.get("gauges", {}))
    for name in ("generation", "queue_depth"):
        if name in snap:
            gauges[name] = snap[name]
    for name, value in sorted(gauges.items()):
        lines.append(f"# TYPE repro_serve_{name} gauge")
        lines.append(f"repro_serve_{name} {value:g}")
    if snap.get("precision"):
        # Info-style series: the label carries the active numeric path.
        lines.append("# TYPE repro_serve_precision gauge")
        lines.append(
            f'repro_serve_precision{{precision="{snap["precision"]}"}} 1')
    cluster = snap.get("cluster", {})
    for name in ("workers_alive", "workers_total", "workers_lost",
                 "generation"):
        if name in cluster:
            lines.append(f"# TYPE repro_serve_cluster_{name} gauge")
            lines.append(f"repro_serve_cluster_{name} {cluster[name]}")
    for wid, depth in sorted(cluster.get("shard_queue_depths", {}).items()):
        lines.append(
            f'repro_serve_shard_queue_depth{{worker="{wid}"}} {depth}')
    for wid, worker in sorted(snap.get("workers", {}).items()):
        for metric in ("requests_total", "sessions_total", "batches_total"):
            lines.append(
                f'repro_serve_worker_{metric}{{worker="{wid}"}} '
                f"{worker.get(metric, 0)}")
        lines.append(
            f'repro_serve_worker_batch_seconds_total{{worker="{wid}"}} '
            f"{worker.get('batch_seconds_total', 0.0):.6f}")
    return "\n".join(lines) + "\n"
