"""The serving engine front and the micro-batched inference engine.

``_EngineFront`` is what every engine shares: the config, metrics, rate
limiter and closed flag, admission (``submit`` parses a session, checks
its tenant's rate limit, then hands the :class:`RawSession` to the
backend's ``_enqueue``), ``score`` / ``score_many``, ``close`` and the
``health`` / metrics views.  :class:`InferenceEngine` is the local
backend below; :class:`~repro.serve.cluster.ClusterEngine` the sharded
one.

:class:`InferenceEngine` owns a warm-loaded CLFD model and a
:class:`~repro.serve.batcher.MicroBatcher`.  Callers (HTTP handler
threads, or library users) submit one raw session at a time; the
batcher coalesces them and the engine scores each batch with a single
padded pass through the model's
:class:`~repro.core.encoder.InferenceForward` — the NumPy forward
``CLFD.predict`` runs, so a served score equals the model's own.

The model, its encoding tables, its inference forward and the
forward's :class:`~repro.core.encoder.Workspace` live in a
``_ModelRuntime`` bound to the batcher that scores with it, so a
**rolling reload**
(:meth:`InferenceEngine.reload_model`) can build and warm the next
generation, flip new submissions over atomically, and drain the old
batcher — no dropped requests and no batch ever mixes generations.
Every :class:`ScoreResult` is tagged with the generation that scored it.

Degradation policy (per ISSUE motivation: deployment-time scoring is
where detectors fail in practice):

* malformed payloads raise a structured
  :class:`~repro.serve.schemas.RequestError` at *submit* time, before
  they can poison a batch;
* unseen activity tokens and out-of-range activity ids degrade to the
  padding embedding (≈ zero vector) and are reported per session as
  ``oov_count`` instead of failing the request;
* a full queue raises ``RequestError(queue_full, status=429)`` —
  backpressure, not unbounded buffering — and a per-tenant token bucket
  (:class:`~repro.serve.ratelimit.TenantRateLimiter`, enabled through
  :class:`ServeConfig`) throttles noisy tenants before they reach it.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
from concurrent.futures import Future
from typing import Any, Iterable

import numpy as np

from ..core.clfd import CLFD
from ..data.vocab import Vocabulary
from ..nn.profiler import Profiler
from .batcher import MicroBatcher, QueueFullError, submit_windowed
from .config import ServeConfig
from .metrics import ServingMetrics, render_snapshot
from .ratelimit import TenantRateLimiter
from .schemas import RawSession, RequestError, ScoreResult, parse_session

__all__ = ["InferenceEngine"]


@dataclasses.dataclass(frozen=True)
class _Encoded:
    """A session after vocabulary encoding, ready to batch."""

    ids: tuple[int, ...]
    session_id: str
    oov_count: int


_WARMUP = _Encoded(ids=(0,), session_id="warmup", oov_count=0)


class _ModelRuntime:
    """One model generation: the model, its encoding tables, its tag,
    and the workspace its micro-batches are scored in.

    A batcher is bound to exactly one runtime (via ``partial``), which
    is what makes reloads batch-atomic: an old batcher can only ever
    score with the generation it was created for.  The workspace —
    ids, lengths and every grid buffer of a ``max_batch``-row forward —
    is allocated here, once per generation, and only this runtime's
    batcher thread (or the warm-up before it starts) writes it.
    """

    def __init__(self, model: CLFD, generation: int, max_batch: int):
        if model.vectorizer is None:
            raise ValueError("InferenceEngine requires a fitted CLFD")
        self.model = model
        self.generation = int(generation)
        self.vectorizer = model.vectorizer
        self.vocab = self.vectorizer.vocab
        self.vocab_size = self.vectorizer.model.vocab_size
        self.dataset_vocab = self.vocab or Vocabulary()
        self.forward = model.inference_forward()
        self.workspace = self.forward.workspace(
            max_batch, self.dataset_vocab.pad_id)

    def encode(self, raw: RawSession) -> _Encoded:
        """Map tokens/ids into embedding rows, with OOV degradation."""
        pad = self.dataset_vocab.pad_id
        ids: list[int] = []
        oov = 0
        for activity in raw.activities:
            if isinstance(activity, int):
                if 0 <= activity < self.vocab_size:
                    ids.append(int(activity))
                else:
                    ids.append(pad)
                    oov += 1
            else:
                if self.vocab is None:
                    raise RequestError(
                        "tokens_unsupported",
                        "this model archive carries no vocabulary "
                        "(format v1); send integer activity ids",
                    )
                if activity in self.vocab:
                    ids.append(self.vocab[activity])
                else:
                    ids.append(pad)
                    oov += 1
        # The model pads/truncates at max_len anyway; trim early so a
        # long session does not inflate the batch buffers.
        ids = ids[: self.vectorizer.max_len]
        return _Encoded(ids=tuple(ids), session_id=raw.session_id,
                        oov_count=oov)


class _EngineFront:
    """The surface both engines share, over a backend.

    A backend supplies ``_enqueue(raw)`` (queue one admitted session,
    returning its result future), ``_stop()`` (drain and release, run
    once by :meth:`close`) and the ``generation`` / ``queue_depth`` /
    ``precision`` properties.
    """

    def __init__(self, config: ServeConfig | None,
                 metrics: ServingMetrics | None,
                 rate_limiter: TenantRateLimiter | None):
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics or ServingMetrics()
        self.profiler = Profiler()
        self._limiter = (rate_limiter if rate_limiter is not None
                         else TenantRateLimiter.from_config(self.config))
        self._closed = False
        # Guards the closed flag and the backend's reload/routing state.
        self._lock = threading.Lock()

    @property
    def include_embeddings(self) -> bool:
        return self.config.include_embeddings

    # ------------------------------------------------------------------
    # Public scoring API
    # ------------------------------------------------------------------
    def submit(self, payload: Any, *,
               tenant: str | None = None) -> "Future[ScoreResult]":
        """Validate ``payload`` and hand it to the backend for scoring.

        Raises :class:`RequestError` for malformed payloads, when the
        queue is full (429), when the tenant is throttled (429), or
        once shutdown has begun (503); otherwise returns a future
        resolving to the session's :class:`ScoreResult`.
        """
        raw = payload if isinstance(payload, RawSession) \
            else parse_session(payload)
        if self._limiter is not None:
            self._limiter.check(tenant)
        return self._enqueue(raw)

    def score(self, payload: Any, timeout: float | None = 30.0, *,
              tenant: str | None = None) -> ScoreResult:
        """Synchronous single-session scoring (submit + wait)."""
        return self.submit(payload, tenant=tenant).result(timeout=timeout)

    def score_many(self, payloads: Iterable[Any],
                   timeout: float | None = 30.0, *,
                   tenant: str | None = None) -> list[ScoreResult]:
        """Score several sessions, preserving order.

        Up to ``config.max_queue`` payloads are submitted ahead of the
        first wait, so they share micro-batches without the call
        overrunning the queue by itself, however many it scores.
        """
        return submit_windowed(
            functools.partial(self.submit, tenant=tenant), payloads,
            self.config.max_queue, timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop: every in-flight future resolves first.

        From the moment close begins, :meth:`health` reports
        ``shutting_down``; once the backend has stopped taking work,
        submissions answer 503.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {"status": "shutting_down" if self._closed else "ok",
                "generation": self.generation,
                "queue_depth": self.queue_depth}

    def metrics_snapshot(self) -> dict:
        """The JSON ``/v1/metrics`` view for this engine."""
        snap = self.metrics.snapshot(self.profiler.regions)
        snap["generation"] = self.generation
        snap["queue_depth"] = self.queue_depth
        snap["precision"] = self.precision
        if self._limiter is not None:
            snap["rate_limiter"] = self._limiter.snapshot()
        return snap

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition for this engine."""
        return render_snapshot(self.metrics_snapshot())


class InferenceEngine(_EngineFront):
    """Scores raw sessions against a fitted CLFD with micro-batching.

    Parameters
    ----------
    model: a *fitted* CLFD (typically from
        :func:`repro.core.load_clfd`).
    config: a :class:`ServeConfig`; ``None`` means the defaults.
    metrics / rate_limiter: injectable collaborators (a cluster worker
        keeps one metrics object across reloads; tests inject a
        fake-clock limiter).
    generation / worker_id: tags stamped onto every result — the model
        generation this engine starts at, and the cluster shard id
        (``None`` outside a cluster).
    """

    def __init__(self, model: CLFD, config: ServeConfig | None = None, *,
                 metrics: ServingMetrics | None = None,
                 rate_limiter: TenantRateLimiter | None = None,
                 generation: int = 0, worker_id: int | None = None):
        super().__init__(config, metrics, rate_limiter)
        self.worker_id = worker_id
        runtime = _ModelRuntime(model, generation, self.config.max_batch)
        if self.config.warmup:
            self._score_batch(runtime, [_WARMUP])
        self._active: tuple[_ModelRuntime, MicroBatcher] = (
            runtime, self._make_batcher(runtime))

    @classmethod
    def from_archive(cls, path: str | os.PathLike,
                     config: ServeConfig | None = None,
                     **kwargs) -> "InferenceEngine":
        """Warm-load a persisted archive (see :func:`repro.core.load_clfd`).

        ``config.precision`` routes the load through the low-precision
        runtime (quantizing a full-precision archive on the fly).
        """
        from ..core.persistence import load_clfd

        precision = config.precision if config else None
        return cls(load_clfd(path, precision=precision), config, **kwargs)

    def _make_batcher(self, runtime: _ModelRuntime) -> MicroBatcher:
        return MicroBatcher(
            functools.partial(self._score_batch, runtime),
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            max_queue=self.config.max_queue,
            on_batch=self.metrics.record_batch,
        )

    # ------------------------------------------------------------------
    # Introspection (the live generation's view)
    # ------------------------------------------------------------------
    @property
    def model(self) -> CLFD:
        return self._active[0].model

    @property
    def vectorizer(self):
        return self._active[0].vectorizer

    @property
    def generation(self) -> int:
        return self._active[0].generation

    @property
    def precision(self) -> str:
        """The active numeric path: a quantized runtime's stored
        precision, else the full-precision model's compute dtype."""
        model = self._active[0].model
        return (getattr(model, "precision", None)
                or model.config.compute_dtype)

    @property
    def queue_depth(self) -> int:
        return self._active[1].pending

    # ------------------------------------------------------------------
    # Backend
    # ------------------------------------------------------------------
    def _enqueue(self, raw: RawSession) -> "Future[ScoreResult]":
        """Encode ``raw`` and enqueue it on the live generation."""
        # Two attempts: a rolling reload may close the batcher we read
        # between encode and enqueue — re-read the flipped generation
        # (its vocabulary may differ, so re-encode too) and retry.
        for _ in range(2):
            runtime, batcher = self._active
            encoded = runtime.encode(raw)
            try:
                return batcher.submit(encoded)
            except QueueFullError as exc:
                raise RequestError("queue_full", str(exc),
                                   status=429) from None
            except RuntimeError:
                if self._closed:
                    break
        raise RequestError("shutting_down",
                           "engine is shutting down", status=503)

    def _stop(self) -> None:
        self._active[1].close(timeout=self.config.drain_timeout_s)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reload_model(self, model: CLFD, generation: int | None = None) -> int:
        """Rolling reload: warm the new model, flip, drain the old.

        The next generation is fully constructed (and warmed, when
        ``config.warmup``) *before* any request is routed to it; the
        previous batcher then drains every already-enqueued request
        against the model that accepted it.  Returns the new generation.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            old_runtime, old_batcher = self._active
            gen = (int(generation) if generation is not None
                   else old_runtime.generation + 1)
            runtime = _ModelRuntime(model, gen, self.config.max_batch)
            if self.config.warmup:
                self._score_batch(runtime, [_WARMUP])
            self._active = (runtime, self._make_batcher(runtime))
        old_batcher.close(timeout=self.config.drain_timeout_s)
        return gen

    def reload(self, path: str | os.PathLike,
               generation: int | None = None) -> int:
        """Rolling reload from a persisted archive path (at the
        engine's configured precision, so a reload can never silently
        change the numeric path)."""
        from ..core.persistence import load_clfd

        return self.reload_model(
            load_clfd(path, precision=self.config.precision), generation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _score_batch(self, runtime: _ModelRuntime,
                     items: list[_Encoded]) -> list[ScoreResult]:
        """One padded forward pass for a coalesced micro-batch.

        The batch is padded to exactly ``config.max_batch`` rows with
        throwaway pad sessions before the forward pass.  BLAS picks
        different GEMM kernels for different row counts, and the
        summation orders differ, so the *same* session scores
        ULP-differently at batch sizes 1, 2–3 and 4+ — a session's
        score would otherwise depend on how many requests happened to
        coalesce with it.  Fixing the row count makes every score a
        function of the session alone, which is what keeps
        differently-coalesced engines (cluster shards vs a single
        process) bit-identical.

        Padding costs little beyond the GEMM rows: the LSTM encoder
        skips dead cells (DESIGN.md §7), so a
        tail pad row of length 1 is computed at step 0 only and no step
        runs past the longest real session.  The ids go straight into
        the runtime's workspace, and the forward allocates no grid-sized
        array (DESIGN.md §8).
        """
        forward, ws = runtime.forward, runtime.workspace
        ws.load((item.ids for item in items), fill=_WARMUP.ids)
        with self.profiler.timer("batch_forward"):
            embeddings = forward.encode(ws)
            labels, scores = forward.classify(embeddings)
        if not self.config.include_embeddings:
            embeddings = None
        results = []
        for row, item in enumerate(items):
            score = float(scores[row])
            warnings: tuple[str, ...] = ()
            if not np.isfinite(score):
                # Don't let a numerically-broken model masquerade as a
                # confident verdict: flag the session so clients can
                # route it to review instead of trusting label/score.
                warnings = ("score is not finite; the model produced a "
                            "non-finite probability for this session",)
            results.append(ScoreResult(
                session_id=item.session_id,
                label=int(labels[row]),
                score=score,
                probs=(1.0 - score, score),
                oov_count=item.oov_count,
                embedding=(tuple(np.asarray(embeddings[row], dtype=float))
                           if embeddings is not None else None),
                warnings=warnings,
                generation=runtime.generation,
                worker=self.worker_id,
            ))
        return results
