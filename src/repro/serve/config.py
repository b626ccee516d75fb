"""One configuration object for every serve entry point.

Before this module existed the serving tier had three independent ways
to spell the same knobs — ``InferenceEngine`` kwargs, ``run_server``
kwargs and ``repro serve`` CLI flags — and the cluster tier would have
added a fourth.  :class:`ServeConfig` is now the single construction
path: the library engines (:class:`~repro.serve.engine.InferenceEngine`,
:class:`~repro.serve.cluster.ClusterEngine`), the HTTP server
(:class:`~repro.serve.server.ServingServer` / ``run_server``) and the
CLI all consume one frozen, validated dataclass.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["ServeConfig"]


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Every serving knob in one immutable object.

    Parameters
    ----------
    max_batch / max_wait_ms / max_queue: micro-batcher window — batch
        ceiling, coalescing wait after the first request, and the
        backpressure bound that maps to HTTP 429.  ``max_wait_ms=0``
        (the default) dispatches whatever is queued the moment the
        worker is free: every batch is padded to ``max_batch`` rows
        anyway, so waiting for company never makes a forward cheaper.
    workers: scoring processes.  ``1`` serves in-process through
        :class:`InferenceEngine`; ``>1`` starts a sharded
        :class:`ClusterEngine` with model weights in shared memory.
    host / port: HTTP bind address (``port=0`` picks an ephemeral port).
    rate_limit_rps / rate_limit_burst: per-tenant token bucket —
        sustained sessions/second and burst capacity (defaults to the
        sustained rate).  ``None`` disables rate limiting.
    drain_timeout_s: reload/shutdown policy — how long a rolling reload
        or close waits for in-flight batches to drain.
    score_timeout_s: server-side bound on one request's scoring wait.
    include_embeddings: attach encoder representations to results.
    precision: inference precision — ``None`` serves archives as
        persisted (full precision for v1/v2, stored precision for
        quantized v3); ``"int8"`` / ``"float16"`` / ``"float32"``
        routes scoring through the low-precision runtime
        (:mod:`repro.quant`), quantizing full-precision archives on
        the fly at (re)load time.
    warmup: run a throwaway forward at (re)load so the first real
        request never pays first-call allocation costs.
    verbose: per-request HTTP logging.
    """

    max_batch: int = 32
    max_wait_ms: float = 0.0
    max_queue: int = 1024
    workers: int = 1
    host: str = "127.0.0.1"
    port: int = 8000
    rate_limit_rps: float | None = None
    rate_limit_burst: float | None = None
    drain_timeout_s: float = 30.0
    score_timeout_s: float = 30.0
    include_embeddings: bool = False
    precision: str | None = None
    warmup: bool = True
    verbose: bool = False

    _PRECISIONS = (None, "float32", "float16", "int8")

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below, and an infinite
        # wait or timeout stalls the batcher for good.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, "
                                 f"got {value!r}")
        if self.precision not in self._PRECISIONS:
            raise ValueError(
                f"precision must be one of {self._PRECISIONS}, "
                f"got {self.precision!r}")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError("rate_limit_rps must be positive (or None)")
        if self.rate_limit_burst is not None and self.rate_limit_burst <= 0:
            raise ValueError("rate_limit_burst must be positive (or None)")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.score_timeout_s <= 0:
            raise ValueError("score_timeout_s must be positive")

    @property
    def burst(self) -> float | None:
        """Effective bucket capacity: explicit burst, else the rate."""
        if self.rate_limit_rps is None:
            return self.rate_limit_burst
        return (self.rate_limit_burst if self.rate_limit_burst is not None
                else max(self.rate_limit_rps, 1.0))

    def replace(self, **changes) -> "ServeConfig":
        return dataclasses.replace(self, **changes)

    def worker_config(self) -> "ServeConfig":
        """The per-worker view: one process, limits enforced up front."""
        return self.replace(workers=1, rate_limit_rps=None,
                            rate_limit_burst=None, verbose=False)

