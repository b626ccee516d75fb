"""``serve`` and ``serve_cluster``: keep-alive HTTP scoring of single sessions.

``python -m repro serve`` runs as its own process (``--workers 1`` for
``serve``, ``--workers 2`` for ``serve_cluster``, default ServeConfig
otherwise).  Load comes from this process: two client threads, each
holding one persistent HTTP/1.1 connection and sending each request in
a single ``send``.  Every request carries one test-split session as
vocabulary tokens (about 2% replaced by unseen tokens) and a unique
``session_id``.

* Phase A, open loop: ``RATE`` req/s Poisson arrivals for ``seconds``
  seconds; latency runs from each request's due time, so a stall also
  charges the requests queued behind it, and the generator's lateness
  is reported.
* Phase B, closed loop: back-to-back requests for ``seconds / 2``
  seconds; their rate is ``rps``.

Batches hold one or two sessions padded to 32 rows, so the HTTP edge
and the per-request path dominate.  ``serve_cluster`` sends identical
traffic through the pipe, pickle, hash-ring and shared-memory path.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from ..host import process_tree, tree_cpu_s, tree_peak_rss_mb
from ..stats import percentile, quantile
from ..trace import read_jsonl, summarize
from . import SETUP_REPEATS, Context, Result, Setup, repro_env

RATE = 20.0          # open-loop arrivals per second
CLIENTS = 2          # threads = connections, at most nproc on the host
POOL_SCALE = 0.3     # cert test split: 150 normal + 18 malicious sessions
UNSEEN_RATE = 0.02   # share of tokens replaced by out-of-vocabulary ones
CHECKED_SCORES = 64  # scores compared against an in-process engine
TIMEOUT_S = 10.0
MAX_BATCH = 32       # ServeConfig default; batch fill is relative to it


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class Requests:
    """Seeded request bodies; index ``i`` always yields the same request."""

    def __init__(self, seed: int):
        from repro.data import make_dataset

        _, test = make_dataset("cert", np.random.default_rng(seed),
                               scale=POOL_SCALE)
        rng = np.random.default_rng([seed, 1])
        self.seed = seed
        self.sessions = []
        for index in rng.permutation(len(test)):
            session = test.sessions[index]
            tokens = [f"unseen_{rng.integers(10_000)}"
                      if rng.random() < UNSEEN_RATE else token
                      for token in test.vocab.decode(session.activities)]
            self.sessions.append((tokens, session.label))

    def payload(self, i: int) -> dict:
        tokens, _ = self.sessions[i % len(self.sessions)]
        return {"activities": tokens, "session_id": f"r{self.seed}-{i:06d}"}

    def label(self, i: int) -> int:
        return self.sessions[i % len(self.sessions)][1]

    def raw(self, i: int) -> bytes:
        body = json.dumps(self.payload(i)).encode()
        return (b"POST /v1/score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode()
                + b"\r\n\r\n" + body)


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """A persistent HTTP/1.1 connection speaking just enough of it."""

    def __init__(self, port: int):
        self.port = port
        self.sock = None
        self.buffer = b""

    def _connect(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send one request; returns (status, body), or (0, b"") on a
        transport failure (the connection is then re-opened)."""
        try:
            if self.sock is None:
                self._connect()
            self.sock.sendall(raw)
            while b"\r\n\r\n" not in self.buffer:
                self._fill()
            head, _, rest = self.buffer.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            length = int(re.search(rb"(?i)content-length:\s*(\d+)",
                                   head).group(1))
            self.buffer = rest
            while len(self.buffer) < length:
                self._fill()
            body, self.buffer = self.buffer[:length], self.buffer[length:]
            return status, body
        except (OSError, ValueError, AttributeError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def _open_loop(port: int, requests: Requests, n: int, seed: int) -> dict:
    """Phase A: ``n`` Poisson arrivals at RATE, CLIENTS connections."""
    gaps = np.random.default_rng([seed, 2]).exponential(1.0 / RATE, n)
    due = np.concatenate([[0.0], np.cumsum(gaps[1:])])
    raws = [requests.raw(i) for i in range(n)]
    latency, late = [0.0] * n, [0.0] * n
    replies: list[tuple[int, bytes]] = [(0, b"")] * n
    cursor = iter(range(n))
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05

    def client() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                due_at = t0 + due[i]
                pause = due_at - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late[i] = time.perf_counter() - due_at
                replies[i] = conn.request(raws[i])
                latency[i] = time.perf_counter() - due_at
        finally:
            conn.close()

    _run_threads(client)
    return {"latency": latency, "late": late, "replies": replies}


def _closed_loop(port: int, requests: Requests, first: int,
                 seconds: float) -> dict:
    """Phase B: CLIENTS connections back to back for ``seconds``."""
    counter = iter(range(first, 10**9))
    lock = threading.Lock()
    statuses: list[int] = []
    done: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    i = next(counter)
                status, _ = conn.request(requests.raw(i))
                with lock:
                    statuses.append(status)
                    done.append(time.perf_counter())
        finally:
            conn.close()

    _run_threads(client)
    ok = sum(1 for s in statuses if s == 200)
    return {"attempted": len(statuses), "ok": ok,
            "rps": ok / (max(done) - start) if done else 0.0}


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process; ``setup_s`` is spawn to healthy."""

    def __init__(self, archive, workers: int, workdir, spans=None):
        cmd = [sys.executable, "-m", "repro", "serve", "--model",
               str(archive), "--port", "0", "--workers", str(workers)]
        if spans is not None:
            cmd[1:3] = ["-m", "bench.serve_launcher", str(spans)]
        # The CLI logs every request to stderr; files keep the pipes
        # from filling up.
        out_path = workdir / f"server-{id(self)}.out"
        with open(out_path, "w") as out, \
                open(workdir / f"server-{id(self)}.err", "w") as err:
            self.proc = subprocess.Popen(cmd, env=repro_env(), stdout=out,
                                         stderr=err)
        self.port = None
        try:
            self._await_ready(out_path)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, out_path, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if self.port is None:
                found = re.search(r"on http://[\d.]+:(\d+)",
                                  out_path.read_text())
                self.port = int(found.group(1)) if found else None
            if self.port is not None:
                try:
                    if self.get("/v1/healthz")["status"] == "ok":
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise TimeoutError("server did not become healthy")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the server drains and reaps its workers), then wait
        until every process of the tree has ended."""
        tree = self.tree() if self.proc.poll() is None else []
        if tree:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        deadline = time.perf_counter() + 30
        while any(map(_alive, tree)) and time.perf_counter() < deadline:
            time.sleep(0.01)
        for pid in filter(_alive, tree):
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Running, not exited (a zombie awaiting its reaper has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# ----------------------------------------------------------------------
def run(ctx: Context, workers: int) -> Result:
    from repro.metrics import auc_roc

    res = Result()
    archive = ctx.archive
    requests = Requests(ctx.seed)
    n_open = round(RATE * ctx.seconds)
    res.params = {"workers": workers, "clients": CLIENTS, "rate": RATE,
                  "open_requests": n_open, "closed_s": ctx.seconds / 2,
                  "pool_sessions": len(requests.sessions),
                  "unseen_rate": UNSEEN_RATE}
    spans = ctx.workdir / "server-spans.jsonl" if ctx.tracer else None

    setup = Setup(lambda i: Server(archive, workers, ctx.workdir,
                                   spans if i == Setup.BEFORE - 1 else None),
                  release=Server.stop)
    server = setup.kept()
    try:
        cpu_before = tree_cpu_s(server.tree())
        phase_a = _open_loop(server.port, requests, n_open, ctx.seed)
        after_a = server.get("/v1/metrics?format=json")
        phase_b = _closed_loop(server.port, requests, n_open, ctx.seconds / 2)
        after_b = server.get("/v1/metrics?format=json")
        tree = server.tree()
        cpu_s = tree_cpu_s(tree) - cpu_before
        res.metric("peak_rss_mb", tree_peak_rss_mb(tree), len(tree))
    finally:
        server.stop()
    res.metric("setup_s", setup.finish(), SETUP_REPEATS)

    ok = [i for i, (status, _) in enumerate(phase_a["replies"])
          if status == 200]
    res.attempted = n_open + phase_b["attempted"]
    res.failed = res.attempted - len(ok) - phase_b["ok"]
    latency_ms = [phase_a["latency"][i] * 1000.0 for i in range(n_open)]
    res.metric("req_p50_ms", quantile(latency_ms, 0.5), n_open)
    p95 = percentile(latency_ms, 0.95)
    if p95 is not None:
        res.metric("req_p95_ms", p95, n_open)
    res.metric("rps", phase_b["rps"], phase_b["ok"])
    res.metric("fail_ratio", res.failed / res.attempted, res.attempted)
    late_ms = [x * 1000.0 for x in phase_a["late"]]
    res.extra["generator_late_ms"] = {"p50": quantile(late_ms, 0.5),
                                      "max": max(late_ms)}

    served = {i: json.loads(phase_a["replies"][i][1]) for i in ok}
    scores = [served[i]["score"] for i in ok]
    res.metric("auc", auc_roc([requests.label(i) for i in ok], scores),
               len(ok))
    res.extra["score_digest"] = hashlib.sha256(
        json.dumps([served.get(i, {}).get("score") for i in range(n_open)])
        .encode()).hexdigest()
    res.check("no_failed_requests", res.failed == 0)
    res.check("scores_match_in_process_engine",
              _matches_engine(archive, requests, served, ctx.seed))

    if ctx.tracer is not None:
        done = len(ok) + phase_b["ok"]
        _layers(res, ctx.tracer, spans, after_a, after_b, workers,
                cpu_s * 1000.0 / max(done, 1))
    return res


def _matches_engine(archive, requests: Requests, served: dict,
                    seed: int) -> bool:
    """Sampled served scores equal an in-process engine's, float-exactly."""
    from repro.serve import InferenceEngine, ServeConfig

    if not served:
        return False
    rng = np.random.default_rng([seed, 3])
    sample = sorted(rng.choice(sorted(served), min(CHECKED_SCORES,
                                                   len(served)),
                               replace=False).tolist())
    with InferenceEngine.from_archive(archive, ServeConfig()) as engine:
        results = engine.score_many([requests.payload(i) for i in sample])
    return all(served[i]["score"] == r.score and served[i]["label"] == r.label
               for i, r in zip(sample, results))


def _layers(res, tracer, spans_path, after_a, after_b, workers,
            cpu_ms_per_req) -> None:
    spans = read_jsonl(spans_path)
    tracer.spans.extend(spans)
    # Health and metrics probes also respond; count only scoring requests.
    by_name = summarize(s for s in spans
                        if s.name != "serve.respond" or s.parent is not None)
    requests = by_name["serve.request"]["n"]

    def per_request_ms(name: str) -> float:
        return by_name.get(name, {"self": 0.0})["self"] * 1000.0 / requests

    res.layer("serve.http.parse_ms", per_request_ms("serve.http.parse"))
    res.layer("serve.engine.submit_ms", per_request_ms("serve.engine.submit"))
    res.layer("serve.respond_ms", per_request_ms("serve.respond"))
    server_p50_ms = after_a["latency_seconds"]["p50"] * 1000.0
    res.layer("serve.server_p50_ms", server_p50_ms)
    res.layer("serve.edge_ms",
              res.metrics["req_p50_ms"]["value"] - server_p50_ms)
    res.layer("serve.cpu_ms_per_req", cpu_ms_per_req)
    if workers == 1:
        forwards = [s.duration for s in spans
                    if s.name == "serve.forward" and s.trace != "warmup"]
        waits = [s.duration for s in spans if s.name == "serve.batcher.wait"]
        res.layer("serve.forward_ms", 1000.0 * sum(forwards) / len(forwards))
        res.layer("serve.batcher.wait_ms", 1000.0 * sum(waits) / len(waits))
        res.layer("serve.batch_fill", after_b["mean_batch_size"] / MAX_BATCH)
        return
    # Cluster workers run outside the wrappers: read their counters.
    shards = list(after_b["workers"].values())
    combined = after_b["workers_combined"]
    forward_ms = (1000.0 * combined["batch_seconds_total"]
                  / combined["batches_total"])
    worker_ms = 1000.0 * (sum(w["latency_seconds"]["mean"]
                              * w["requests_total"] for w in shards)
                          / combined["requests_total"])
    res.layer("serve.forward_ms", forward_ms)
    res.layer("serve.batcher.wait_ms", worker_ms - forward_ms)
    res.layer("serve.batch_fill", combined["mean_batch_size"] / MAX_BATCH)
    front_p50 = after_a["latency_seconds"]["p50"]
    worker_p50 = np.mean([w["latency_seconds"]["p50"]
                          for w in after_a["workers"].values()])
    res.layer("serve.cluster.pipe_ms", 1000.0 * (front_p50 - worker_p50))
    sessions = [w["sessions_total"] for w in shards]
    res.layer("serve.cluster.shard_skew", max(sessions) / np.mean(sessions))
