"""repro.serve: micro-batched inference serving for trained CLFD models.

The deployment story the paper gestures at ("the FCNN head is shipped
to an inference service") made concrete:

* :class:`ServeConfig` — the one frozen configuration object every
  serve entry point (engines, server, CLI) constructs through;
* :class:`InferenceEngine` — warm-loads a persisted archive and scores
  raw sessions with request micro-batching; rolling
  :meth:`~InferenceEngine.reload_model` without dropping requests;
* :class:`ClusterEngine` — shards sessions across N scoring worker
  processes (consistent hash on ``session_id``) that map one shared
  copy of the weights (:class:`SharedArchive`);
* both engines share one front — admission, ``submit`` / ``score`` /
  ``score_many``, ``health`` and the metrics views — and differ only in
  the backend a parsed session is handed to;
* :class:`MicroBatcher` — coalesces concurrent single-session requests
  into padded batches (bounded queue = backpressure);
* :class:`TenantRateLimiter` — per-tenant token buckets in front of the
  queue, so one noisy tenant cannot starve the rest;
* :class:`ServingServer` / :func:`run_server` — stdlib HTTP front end
  (versioned: ``/v1/score``, ``/v1/healthz``, ``/v1/metrics``,
  ``/v1/reload``), started from the CLI with
  ``python -m repro serve --model model.npz [--workers N]``;
* :mod:`~repro.serve.schemas` — request validation with structured,
  client-visible errors, all serialised through one error envelope.
"""

from .batcher import MicroBatcher, QueueFullError
from .cluster import ClusterEngine, HashRing
from .config import ServeConfig
from .engine import InferenceEngine
from .metrics import ServingMetrics, merge_snapshots
from .ratelimit import TenantRateLimiter, TokenBucket
from .schemas import (
    RawSession,
    RequestError,
    ScoreResult,
    parse_score_request,
    parse_session,
)
from .server import API_PREFIX, ServingServer, run_server
from .shm import SharedArchive

__all__ = [
    "ServeConfig",
    "InferenceEngine", "ClusterEngine", "HashRing", "SharedArchive",
    "MicroBatcher", "QueueFullError",
    "ServingMetrics", "merge_snapshots",
    "TenantRateLimiter", "TokenBucket",
    "ServingServer", "run_server", "API_PREFIX",
    "RawSession", "RequestError", "ScoreResult",
    "parse_session", "parse_score_request",
]
