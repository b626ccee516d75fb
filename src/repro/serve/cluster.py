"""Sharded multi-process scoring cluster.

:class:`ClusterEngine` shares its front with
:class:`~repro.serve.engine.InferenceEngine` (``submit`` / ``score`` /
``score_many`` / ``health`` / ``metrics_snapshot`` / ``close``) and adds
``reload``, but its backend fans the work out over N scoring **worker
processes**:

* the archive is read from disk exactly once and its arrays published
  into a :class:`~repro.serve.shm.SharedArchive` segment; every worker
  attaches read-only, zero-copy views and binds them straight into its
  model's parameters (``build_clfd(..., bind=True)``) — N workers, one
  resident copy of the weights;
* sessions are sharded by a consistent hash on ``session_id``
  (:class:`HashRing`), so a session always lands on the same worker
  while that worker lives and only ``1/N`` of the keyspace moves when
  one dies; sessions without an id round-robin;
* each worker runs a full single-process engine — its own
  :class:`~repro.serve.batcher.MicroBatcher` and
  :class:`~repro.serve.metrics.ServingMetrics` — so batching stays
  process-local and metrics aggregate at the front-end;
* :meth:`ClusterEngine.reload` publishes the next generation into a
  fresh segment, flips every worker (each drains its in-flight batches
  against the generation that accepted them — no dropped requests, no
  mixed-version batches) and only then unlinks the old segment;
* a worker death is detected as pipe EOF: its in-flight requests fail
  with a structured 503, the hash ring re-shards around it, and
  subsequent requests route to survivors.

Workers are ``spawn``-started: fork is unsafe under the front-end's
HTTP threads, and spawn keeps each worker a clean interpreter.  Each
worker starts with one BLAS thread (:func:`_worker_blas_env`): the
cluster's parallelism is its N workers, and N processes each running a
BLAS pool as wide as the host only fight over the same cores.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import os
import threading
import traceback
from concurrent.futures import Future
from typing import Any, Iterable

from .config import ServeConfig
from .engine import InferenceEngine, _EngineFront
from .metrics import ServingMetrics, merge_snapshots
from .ratelimit import TenantRateLimiter
from .schemas import RawSession, RequestError, ScoreResult
from .shm import SharedArchive

__all__ = ["ClusterEngine", "HashRing", "WorkerGone"]

_READY_TIMEOUT_S = 120.0
_METRICS_TIMEOUT_S = 10.0
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")
# Serialises the temporary os.environ edit around a worker's start.
_SPAWN_ENV_LOCK = threading.Lock()


class WorkerGone(RuntimeError):
    """A worker process died (or its pipe broke) with requests pending."""


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
def _hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


class HashRing:
    """Consistent hash ring over worker ids.

    Deterministic (keyed blake2b, no process-seeded hashing) so tests —
    and a future multi-front-end deployment — can predict placements.
    Each node contributes ``replicas`` virtual points, which keeps the
    keyspace split within a few percent of even for small clusters.
    """

    def __init__(self, nodes: Iterable[int] = (), replicas: int = 64):
        self.replicas = replicas
        self._points: list[tuple[int, int]] = []  # (hash, node)
        self._keys: list[int] = []
        self._nodes: set[int] = set()
        for node in nodes:
            self.add(node)

    def add(self, node: int) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for r in range(self.replicas):
            point = (_hash64(f"node-{node}-vn-{r}"), node)
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
        self._keys = [h for h, _ in self._points]

    def remove(self, node: int) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]
        self._keys = [h for h, _ in self._points]

    @property
    def nodes(self) -> set[int]:
        return set(self._nodes)

    def lookup(self, key: str) -> int:
        """The node owning ``key`` (clockwise successor on the ring)."""
        if not self._points:
            raise KeyError("hash ring is empty")
        index = bisect.bisect(self._keys, _hash64(key)) % len(self._points)
        return self._points[index][1]

    def __len__(self) -> int:
        return len(self._nodes)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_blas_env(environ) -> dict[str, str]:
    """The BLAS thread variables a worker starts with.

    Each is ``"1"`` unless the operator already set it in ``environ``,
    in which case their value wins.
    """
    return {name: environ.get(name, "1") for name in _BLAS_THREAD_VARS}


def _worker_main(worker_id: int, req_conn, resp_conn, manifest: dict,
                 config: ServeConfig) -> None:
    """Entry point of one scoring worker process.

    Attaches the shared segment, binds a model over its views, runs a
    full in-process engine, and serves requests from the parent pipe
    until told to stop (or the pipe breaks — parent death).
    """
    from ..core.persistence import build_clfd

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            try:
                resp_conn.send(message)
            except (BrokenPipeError, OSError):  # parent is gone
                pass

    def send_error(req_id: int, exc: BaseException) -> None:
        if isinstance(exc, RequestError):
            send(("err", req_id,
                  (exc.code, exc.message, exc.status, exc.details)))
        else:
            send(("err", req_id, ("internal", f"{type(exc).__name__}: {exc}",
                                  500, None)))

    attachment = SharedArchive.attach(manifest)
    engine = InferenceEngine(
        build_clfd(manifest["meta"], attachment.arrays, bind=True),
        config.worker_config(), generation=attachment.generation,
        worker_id=worker_id)

    def on_scored(req_id: int, started: float, future: "Future") -> None:
        import time

        elapsed = time.perf_counter() - started
        exc = future.exception()
        if exc is None:
            engine.metrics.record_request(elapsed)
            send(("ok", req_id, future.result()))
        else:
            code = exc.code if isinstance(exc, RequestError) else "internal"
            engine.metrics.record_request(elapsed, error=code)
            send_error(req_id, exc)

    try:
        while True:
            try:
                kind, req_id, payload = req_conn.recv()
            except (EOFError, OSError):
                break  # parent died; nothing left to serve
            if kind == "score":
                import time

                started = time.perf_counter()
                try:
                    future = engine.submit(payload)
                except RequestError as exc:
                    engine.metrics.record_request(0.0, error=exc.code)
                    send_error(req_id, exc)
                else:
                    future.add_done_callback(
                        lambda fut, rid=req_id, t0=started:
                        on_scored(rid, t0, fut))
            elif kind == "reload":
                generation, new_manifest = payload
                try:
                    new_attachment = SharedArchive.attach(new_manifest)
                    engine.reload_model(
                        build_clfd(new_manifest["meta"],
                                   new_attachment.arrays, bind=True),
                        generation)
                except BaseException as exc:  # noqa: BLE001 - reported
                    traceback.print_exc()
                    send_error(req_id, exc)
                else:
                    attachment.close()
                    attachment = new_attachment
                    send(("ok", req_id, generation))
            elif kind == "metrics":
                send(("ok", req_id, engine.metrics_snapshot()))
            elif kind == "ping":
                send(("ok", req_id, worker_id))
            elif kind == "stop":
                engine.close()
                send(("ok", req_id, None))
                break
            else:  # pragma: no cover - protocol error
                send_error(req_id, RequestError(
                    "bad_request", f"unknown message kind {kind!r}"))
    finally:
        try:
            engine.close()
        finally:
            attachment.close()
            req_conn.close()
            resp_conn.close()


class _WorkerClient:
    """Front-end handle to one worker: pipes, pending futures, reaper."""

    def __init__(self, worker_id: int, manifest: dict, config: ServeConfig,
                 ctx, on_death) -> None:
        self.worker_id = worker_id
        self._on_death = on_death
        self._pending: dict[int, Future] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        # Set once the front-end asks the worker to exit: the EOF that
        # follows is then expected, not a death.
        self.closing = False
        # Two unidirectional pipes; the parent closes the child-side
        # ends after spawn so a worker death reads as EOF here.
        req_recv, self._req_send = ctx.Pipe(duplex=False)
        self._resp_recv, resp_send = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, req_recv, resp_send, manifest, config),
            name=f"repro-serve-worker-{worker_id}", daemon=True)
        # The child inherits os.environ at start(): add the BLAS pins
        # the operator left unset, then take them out of ours again.
        with _SPAWN_ENV_LOCK:
            added = {name: value
                     for name, value in _worker_blas_env(os.environ).items()
                     if name not in os.environ}
            os.environ.update(added)
            try:
                self.process.start()
            finally:
                for name in added:
                    del os.environ[name]
        req_recv.close()
        resp_send.close()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-serve-reader-{worker_id}",
            daemon=True)
        self._reader.start()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self.closing and self.process.is_alive()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def request(self, kind: str, payload: Any = None,
                *, limit: int | None = None) -> "Future":
        """Send one message; returns the future of the worker's reply."""
        future: Future = Future()
        with self._lock:
            if limit is not None and len(self._pending) >= limit:
                raise RequestError(
                    "queue_full",
                    f"worker {self.worker_id} has {limit} requests pending",
                    status=429)
            req_id = next(self._ids)
            self._pending[req_id] = future
            try:
                self._req_send.send((kind, req_id, payload))
            except (BrokenPipeError, OSError):
                del self._pending[req_id]
                raise WorkerGone(
                    f"worker {self.worker_id} pipe is broken") from None
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                status, req_id, payload = self._resp_recv.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                future = self._pending.pop(req_id, None)
            if future is None:
                continue
            if status == "ok":
                future.set_result(payload)
            else:
                code, message, http_status, details = payload
                future.set_exception(RequestError(
                    code, message, status=http_status, details=details))
        if not self.closing:
            self.fail_pending(RequestError(
                "worker_lost",
                f"worker {self.worker_id} died with the request in flight",
                status=503, details={"worker": self.worker_id}))
            self._on_death(self)

    def fail_pending(self, exc: BaseException) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Close pipes and reap the process (terminate if it lingers)."""
        self.closing = True
        for conn in (self._req_send, self._resp_recv):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=timeout)
        self.fail_pending(WorkerGone(
            f"worker {self.worker_id} shut down"))


# ----------------------------------------------------------------------
# Front-end
# ----------------------------------------------------------------------
class ClusterEngine(_EngineFront):
    """Shard sessions across worker processes sharing one weight copy.

    Drop-in for :class:`InferenceEngine` behind
    :class:`~repro.serve.server.ServingServer`; scores are bit-identical
    to the single-process engine because each worker *is* one.
    """

    def __init__(self, archive: str | os.PathLike,
                 config: ServeConfig | None = None, *,
                 metrics: ServingMetrics | None = None,
                 rate_limiter: TenantRateLimiter | None = None):
        super().__init__(config, metrics, rate_limiter)
        self._ctx = multiprocessing.get_context("spawn")
        self._rr = itertools.count()
        self.workers_lost = 0

        self._segment = SharedArchive.publish_archive(
            archive, generation=0, precision=self.config.precision)
        worker_config = self.config.worker_config()
        self._clients: dict[int, _WorkerClient] = {}
        self._ring = HashRing()
        try:
            for wid in range(self.config.workers):
                self._clients[wid] = _WorkerClient(
                    wid, self._segment.manifest, worker_config,
                    self._ctx, self._on_worker_death)
            # One ping round: a worker answers only once its model is
            # bound and warmed, so this doubles as readiness.
            pings = [(wid, client.request("ping"))
                     for wid, client in self._clients.items()]
            for wid, ping in pings:
                ping.result(timeout=_READY_TIMEOUT_S)
                self._ring.add(wid)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._segment.generation

    @property
    def workers_alive(self) -> list[int]:
        return sorted(self._ring.nodes)

    @property
    def queue_depth(self) -> int:
        return sum(client.pending for client in self._clients.values())

    @property
    def precision(self) -> str:
        """The published segment's numeric path (mirrors the workers)."""
        meta = self._segment.manifest["meta"]
        return (self._segment.precision
                or meta["config"].get("compute_dtype", "float64"))

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _pick_worker(self, session_id: str) -> _WorkerClient:
        with self._lock:
            if self._closed:
                raise RequestError("shutting_down",
                                   "cluster is shutting down", status=503)
            if not len(self._ring):
                raise RequestError(
                    "no_workers", "every scoring worker is gone",
                    status=503)
            if session_id:
                wid = self._ring.lookup(session_id)
            else:
                alive = sorted(self._ring.nodes)
                wid = alive[next(self._rr) % len(alive)]
            return self._clients[wid]

    def _enqueue(self, raw: RawSession) -> "Future[ScoreResult]":
        """Shard one session to its worker; returns a result future.

        Same error contract as the single-process engine, plus
        ``worker_lost``/``no_workers`` 503s when processes die.  A
        send-time failure re-shards once onto the updated ring.
        """
        for _ in range(2):
            client = self._pick_worker(raw.session_id)
            try:
                return client.request("score", raw,
                                      limit=self.config.max_queue)
            except WorkerGone:
                self._on_worker_death(client)
        raise RequestError(
            "worker_lost", "workers kept dying while routing the request",
            status=503)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _on_worker_death(self, client: _WorkerClient) -> None:
        with self._lock:
            if client.worker_id in self._ring.nodes:
                self._ring.remove(client.worker_id)
                self.workers_lost += 1

    def reload(self, archive: str | os.PathLike,
               generation: int | None = None) -> int:
        """Rolling reload: publish the next generation, flip, unlink.

        Every live worker warms the new model, atomically flips new
        requests to it, and drains its old batcher before acking — so
        no request is dropped and no batch mixes generations.  The old
        segment is unlinked only after the last ack.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("cluster is closed")
            gen = int(generation) if generation is not None \
                else self.generation + 1
        # Republish at the cluster's configured precision: a rolling
        # reload must never silently change the numeric path.
        new_segment = SharedArchive.publish_archive(
            archive, generation=gen, precision=self.config.precision)
        acks = []
        for client in self._clients.values():
            if not client.alive:
                continue
            try:
                acks.append((client, client.request(
                    "reload", (gen, new_segment.manifest))))
            except WorkerGone:
                self._on_worker_death(client)
        failed = False
        for client, ack in acks:
            try:
                ack.result(timeout=self.config.drain_timeout_s
                           + _READY_TIMEOUT_S)
            except BaseException:  # noqa: BLE001 - worker kept old gen
                failed = True
                self._on_worker_death(client)
        if failed and not len(self._ring):
            new_segment.unlink()
            new_segment.close()
            raise RuntimeError("reload failed on every worker")
        old_segment, self._segment = self._segment, new_segment
        old_segment.unlink()
        old_segment.close()
        return gen

    def _stop(self) -> None:
        """Drain workers, reap processes, unlink the shared segment."""
        clients = list(self._clients.values())
        for client in clients:
            client.closing = True  # each stop ack ends in the worker's EOF
        stops = []
        for client in clients:
            if not client.process.is_alive():
                continue
            try:
                stops.append(client.request("stop"))
            except WorkerGone:
                pass
        for stop in stops:
            try:
                stop.result(timeout=self.config.drain_timeout_s)
            except Exception:  # noqa: BLE001 - reap it anyway
                pass
        for client in clients:
            client.shutdown()
        self._segment.unlink()
        self._segment.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        health = super().health()
        alive = len(self._ring)
        if not alive and health["status"] == "ok":
            health["status"] = "degraded"
        health["workers_alive"] = alive
        health["workers_total"] = len(self._clients)
        return health

    def _worker_snapshots(self) -> dict[int, dict]:
        futures = {}
        for wid, client in self._clients.items():
            if not client.alive:
                continue
            try:
                futures[wid] = client.request("metrics")
            except (WorkerGone, RequestError):
                continue
        snaps = {}
        for wid, future in futures.items():
            try:
                snaps[wid] = future.result(timeout=_METRICS_TIMEOUT_S)
            except BaseException:  # noqa: BLE001 - dead mid-scrape
                continue
        return snaps

    def metrics_snapshot(self) -> dict:
        """Cluster-wide ``/v1/metrics``: front-end + per-worker + merged."""
        workers = self._worker_snapshots()
        snap = super().metrics_snapshot()
        snap["cluster"] = {
            "workers_alive": len(self.workers_alive),
            "workers_total": len(self._clients),
            "workers_lost": self.workers_lost,
            "generation": self.generation,
            "shard_queue_depths": {
                wid: snap_w.get("queue_depth", 0)
                for wid, snap_w in workers.items()},
        }
        snap["workers"] = {str(wid): workers[wid] for wid in sorted(workers)}
        snap["workers_combined"] = merge_snapshots(list(workers.values()))
        return snap
