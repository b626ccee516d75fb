"""Stdlib HTTP front end for the inference engine / scoring cluster.

``python -m repro serve --model model.npz`` starts a
:class:`ThreadingHTTPServer` where each connection thread parses the
request, submits its sessions to the shared engine —
:class:`~repro.serve.engine.InferenceEngine` in-process, or a sharded
:class:`~repro.serve.cluster.ClusterEngine` when ``--workers N>1`` —
and blocks on the futures; the per-process micro-batchers turn that
blocking concurrency into padded model batches.

Versioned API (v1)
------------------
``POST /v1/score``
    Body: one session object or ``{"sessions": [...]}`` (see
    :mod:`repro.serve.schemas`).  Responds with the matching shape: a
    result object, or ``{"results": [...]}``.  The optional
    ``X-Tenant`` header names the rate-limiting tenant.
``GET /v1/healthz``
    Liveness, queue depth, model generation (and worker counts for a
    cluster).  Answers 503 with status ``shutting_down`` once the engine
    has begun to close, so a load balancer stops routing to it while it
    drains.
``GET /v1/metrics``
    Prometheus-style text exposition (``?format=json`` for the JSON
    snapshot; cluster deployments aggregate per-worker series).
``POST /v1/reload``
    Body ``{"model": "path.npz"}``: rolling reload to a new archive;
    responds with the new generation.

Every error — validation, backpressure, rate limiting, timeouts,
internal failures, unknown routes, and the protocol errors
:mod:`http.server` raises itself (bad request line, 414, 431, 501) —
serialises through :meth:`RequestError.to_envelope`, in exactly one
place (:meth:`_Handler._fail`).

Every response — status line, headers and body — leaves in one
``send`` (:meth:`_Handler._send_bytes`), and accepted sockets set
``TCP_NODELAY``.  Written as two sends, Nagle holds the small body
back until the client ACKs the headers, and a delayed ACK turns that
into a ~40 ms stall on every keep-alive request.  A response to a
request whose body was left unread closes the connection, so the body
is never parsed as the next request.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlparse

from .config import ServeConfig
from .engine import InferenceEngine
from .schemas import RequestError, parse_score_request

__all__ = ["ServingServer", "run_server", "API_PREFIX"]

API_PREFIX = "/v1"
_MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """One instance per connection, which keep-alive reuses for many
    requests; engine/metrics live on the server."""

    server: "ServingServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        path = parsed.path
        if path == f"{API_PREFIX}/healthz":
            health = self.server.engine.health()
            health["model"] = self.server.model_name
            self._respond(503 if health["status"] == "shutting_down"
                          else 200, health)
        elif path == f"{API_PREFIX}/metrics":
            engine = self.server.engine
            if "format=json" in (parsed.query or ""):
                self._respond(200, engine.metrics_snapshot())
            else:
                self._send_bytes(200,
                                 engine.metrics_prometheus().encode("utf-8"),
                                 "text/plain; version=0.0.4")
        else:
            self._fail(RequestError("not_found", f"no route for {path}",
                                    status=404))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        if path == f"{API_PREFIX}/score":
            self._score()
        elif path == f"{API_PREFIX}/reload":
            self._reload()
        else:
            self._fail(RequestError("not_found", f"no route for {path}",
                                    status=404))

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _score(self) -> None:
        engine = self.server.engine
        tenant = self.headers.get("X-Tenant") or None
        start = time.perf_counter()
        try:
            payload = self._read_json()
            sessions, is_batch = parse_score_request(payload)
            results = engine.score_many(
                sessions, timeout=self.server.config.score_timeout_s,
                tenant=tenant)
        except RequestError as exc:
            engine.metrics.record_request(time.perf_counter() - start,
                                          error=exc.code)
            self._fail(exc)
            return
        except FutureTimeoutError:
            engine.metrics.record_request(time.perf_counter() - start,
                                          error="timeout")
            self._fail(RequestError("timeout", "scoring timed out",
                                    status=504))
            return
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            engine.metrics.record_request(time.perf_counter() - start,
                                          error="internal")
            self._fail(RequestError("internal", str(exc), status=500))
            return
        engine.metrics.record_request(time.perf_counter() - start,
                                      sessions=len(results))
        if is_batch:
            self._respond(200, {"results": [r.to_dict() for r in results]})
        else:
            self._respond(200, results[0].to_dict())

    def _reload(self) -> None:
        try:
            payload = self._read_json()
            if not isinstance(payload, dict) \
                    or not isinstance(payload.get("model"), str):
                raise RequestError(
                    "invalid_request",
                    'reload body must be {"model": "<archive path>"}')
            try:
                generation = self.server.engine.reload(payload["model"])
            except FileNotFoundError:
                raise RequestError(
                    "model_not_found",
                    f"no archive at {payload['model']!r}",
                    status=404) from None
        except RequestError as exc:
            self._fail(exc)
            return
        except Exception as exc:  # noqa: BLE001 - boundary
            self._fail(RequestError("internal", str(exc), status=500))
            return
        self._respond(200, {"generation": generation,
                            "model": payload["model"]})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def parse_request(self) -> bool:
        self._body_read = False  # per request, not per connection
        return super().parse_request()

    def _read_json(self):
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise RequestError(
                "invalid_request",
                f"Content-Length header must be a non-negative integer, "
                f"got {raw!r}")
        if length == 0:
            raise RequestError("empty_body", "request body required")
        if length > _MAX_BODY_BYTES:
            raise RequestError("body_too_large",
                               f"body exceeds {_MAX_BODY_BYTES} bytes",
                               status=413)
        body = self.rfile.read(length)
        self._body_read = True
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise RequestError("invalid_json",
                               f"body is not valid JSON: {exc}") from None

    def _fail(self, exc: RequestError) -> None:
        """The single point where serving errors become HTTP responses."""
        self._respond(exc.status, exc.to_envelope())

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """``http.server``'s own errors, in the envelope; always closes."""
        self.log_error("code %d, message %s", code, message)
        self.close_connection = True
        phrase = self.responses.get(code, ("Error",))[0]
        self._fail(RequestError(
            "_".join(phrase.lower().replace("-", " ").split()),
            message or phrase, status=code))

    def _respond(self, status: int, payload: dict) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"),
                         "application/json")

    def _send_bytes(self, status: int, body: bytes,
                    content_type: str) -> None:
        """The one response writer: status line, headers, body, one send."""
        if not self.close_connection and not self._body_read and (
                self.headers.get("Content-Length", "0").strip() != "0"
                or "Transfer-Encoding" in self.headers):
            # A declared body nobody read would be parsed as the next
            # request on this connection.
            self.close_connection = True
        self.log_request(status)
        lines = [f"{self.protocol_version} {status} "
                 f"{self.responses.get(status, ('',))[0]}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, fmt: str, *args) -> None:  # pragma: no cover
        if self.server.config.verbose:
            super().log_message(fmt, *args)


class ServingServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one scoring engine.

    ``engine`` is an :class:`InferenceEngine` or
    :class:`~repro.serve.cluster.ClusterEngine`; the server only uses
    the shared surface (``score_many`` / ``health`` / ``reload`` /
    ``metrics_*``).  With no explicit ``config`` the engine's own is
    reused, so host/port/timeouts are stated once.  ``port=0`` binds an
    ephemeral port (tests); read ``.port`` after construction.  Use as
    a context manager, or call :meth:`start_background` /
    :meth:`shutdown` explicitly.
    """

    daemon_threads = True

    def __init__(self, engine, config: ServeConfig | None = None,
                 model_name: str = "clfd"):
        self.config = config if config is not None else engine.config
        super().__init__((self.config.host, self.config.port), _Handler)
        self.engine = engine
        self.model_name = model_name
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        """Serve on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="repro-serve-http", daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Drain, then stop.

        The engine is closed *first*: closing drains the micro-batcher,
        so handler threads blocked on scoring futures see them resolve
        and flush their responses before the HTTP loop stops.  (The old
        order — stop HTTP, leave the engine running — abandoned every
        in-flight future when the process exited: clients got reset
        connections and the batcher's promises were never kept.)  While
        it drains, ``/v1/healthz`` answers 503 ``shutting_down``.
        """
        self.engine.close()
        super().shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __exit__(self, *exc) -> None:
        self.shutdown()
        super().__exit__(*exc)


def run_server(model_path: str,
               config: ServeConfig | None = None) -> None:
    """Blocking entry point behind ``python -m repro serve``.

    ``config.workers > 1`` starts the sharded multi-process cluster
    (weights in shared memory, consistent-hash session affinity);
    otherwise a single in-process engine.
    """
    if config is None:
        config = ServeConfig()
    if config.workers > 1:
        from .cluster import ClusterEngine

        engine = ClusterEngine(model_path, config)
    else:
        engine = InferenceEngine.from_archive(model_path, config)
    server = ServingServer(engine, config, model_name=str(model_path))
    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    try:  # graceful drain (and shm unlink) on SIGTERM, not just ^C
        import signal

        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    print(f"serving {model_path} on http://{config.host}:{server.port} "
          f"(workers={config.workers}, max_batch={config.max_batch}, "
          f"max_wait_ms={config.max_wait_ms})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.shutdown()
