"""Multi-host work-stealing coordination over idempotent grid cells.

The executor's cells are already distributed-systems primitives: a
:class:`~repro.parallel.tasks.TaskSpec` is self-describing, every cell
derives all randomness from its own spec, and completed records land in
a content-keyed :class:`~repro.parallel.cache.RunCache`.  This module
adds the missing tier — a tiny TCP leader that hands out content keys
to workers on any host:

* **Lease.**  A worker asks for work; the leader pops a cell off the
  queue and grants a *lease* (cell index + content key + attempt + a
  unique nonce) with a deadline ``lease_ttl`` seconds out.
* **Heartbeat.**  While executing, the worker heartbeats every
  ``lease_ttl / 3``; each beat extends the deadline.  A worker that is
  SIGKILLed, partitioned, or simply loses its host stops beating.
* **Re-queue.**  A reaper expires overdue leases and re-queues the cell
  (same attempt — worker loss is not the cell's fault, so the victim is
  not charged).  The leader expires a local worker's leases as soon as
  its process is seen dead (:meth:`Coordinator.expire_worker`).  A cell
  whose leases keep expiring is presumed to be crashing its workers and
  is quarantined as a structured failure after ``max_requeues``.
* **Idempotent completion.**  Cells are deterministic, so the first
  completion for an index wins regardless of which lease produced it;
  duplicates (two hosts racing the same re-queued key) are acknowledged
  and dropped.  An execution *exception* reported by the current lease
  holder charges an attempt and re-queues within the retry budget.

Transport is one JSON line per request over a fresh connection — no
connection state to lose, which is exactly right for workers that may
die at any instruction.  Specs travel as base64-pickled payloads inside
the JSON envelope (workers are trusted peers of the leader: the same
codebase, the same sweep).
"""

from __future__ import annotations

import base64
import collections
import json
import pickle
import queue
import socket
import socketserver
import threading
import time
import uuid

from .tasks import TaskSpec, task_key

__all__ = ["Coordinator", "CoordinatorClient", "parse_address",
           "DEFAULT_LEASE_TTL", "MAX_REQUEUES"]

DEFAULT_LEASE_TTL = 10.0
# A cell whose lease expires this many times is presumed to kill its
# workers (crash quarantine) and becomes a structured failure instead of
# cycling through workers forever.
MAX_REQUEUES = 3


def parse_address(address: str | None) -> tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``None`` -> a bindable pair."""
    if not address:
        return "127.0.0.1", 0
    host, sep, port = str(address).rpartition(":")
    if not sep:
        host, port = "", address
    return host or "0.0.0.0", int(port)


def _encode_spec(spec: TaskSpec) -> str:
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def _decode_spec(blob: str) -> TaskSpec:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class _Lease:
    __slots__ = ("index", "key", "attempt", "worker", "nonce", "deadline")

    def __init__(self, index: int, key: str, attempt: int, worker: str,
                 ttl: float):
        self.index = index
        self.key = key
        self.attempt = attempt
        self.worker = worker
        self.nonce = uuid.uuid4().hex
        self.deadline = time.monotonic() + ttl

    def extend(self, ttl: float) -> None:
        self.deadline = time.monotonic() + ttl


class Coordinator:
    """Work-stealing leader for one sweep's remaining cells.

    Emits ``("complete", index, payload, attempts)`` and
    ``("failed", index, error_record)`` tuples on :attr:`events` —
    exactly one event per cell, which is what lets the executor fill
    its result slots in input order and stay bit-identical to the
    sequential path.
    """

    def __init__(self, cells: dict[int, TaskSpec], retries: int = 1,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 max_requeues: int = MAX_REQUEUES):
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        self.cells = dict(cells)
        self.retries = retries
        self.lease_ttl = float(lease_ttl)
        self.max_requeues = max_requeues
        self.events: queue.Queue = queue.Queue()

        self._lock = threading.Lock()
        self._queue: collections.deque[tuple[int, int]] = collections.deque(
            (index, 0) for index in sorted(self.cells))
        self._leases: dict[int, _Lease] = {}
        self._resolved: set[int] = set()
        self.requeue_counts: collections.Counter = collections.Counter()
        self._server: socketserver.ThreadingTCPServer | None = None
        self._reaper: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------
    def start(self, address: str | None = None) -> tuple[str, int]:
        """Bind, serve in the background, return the bound address."""
        bound = self.bind(address)
        self.serve()
        return bound

    def bind(self, address: str | None = None) -> tuple[str, int]:
        """Bind and listen without starting a thread; returns the address.

        Workers may connect at once: their requests wait in the listen
        backlog until :meth:`serve`.  The executor forks its local
        workers in between, before the leader's own threads start.
        """
        host, port = parse_address(address)
        coordinator = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):  # one JSON line in, one JSON line out
                try:
                    line = self.rfile.readline()
                    if not line.strip():
                        return
                    request = json.loads(line)
                    response = coordinator._dispatch(request)
                    self.wfile.write(
                        (json.dumps(response) + "\n").encode("utf-8"))
                except (OSError, json.JSONDecodeError,
                        UnicodeDecodeError):  # pragma: no cover - net noise
                    pass

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        bound = self._server.server_address
        self.address = (bound[0], bound[1])
        return self.address

    @property
    def listener(self) -> socket.socket | None:
        """The listening socket while bound; forked children close it."""
        return None if self._server is None else self._server.socket

    def serve(self) -> None:
        """Start the request-serving and lease-reaper threads."""
        threading.Thread(target=self._server.serve_forever,
                         kwargs={"poll_interval": 0.05},
                         daemon=True, name="grid-coordinator").start()
        self._reaper = threading.Thread(target=self._reap_loop, daemon=True,
                                        name="grid-lease-reaper")
        self._reaper.start()

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            if self._reaper is not None:  # serve() ran
                self._server.shutdown()
            self._server.server_close()
            self._server = None

    # -- introspection -------------------------------------------------
    def active_workers(self) -> int:
        """Distinct workers currently holding an unexpired lease."""
        now = time.monotonic()
        with self._lock:
            return len({lease.worker for lease in self._leases.values()
                        if lease.deadline > now})

    def outstanding(self) -> int:
        """Cells not yet resolved (queued or leased)."""
        with self._lock:
            return len(self.cells) - len(self._resolved)

    @property
    def done(self) -> bool:
        return self.outstanding() == 0

    def fail_queued(self, reason: str) -> int:
        """Resolve every *queued* cell as a structured failure.

        Leader-side safety valve: when the local spawn budget is gone
        and no remote worker holds a lease, queued cells would otherwise
        wait forever (only leased cells can expire).  Leased cells are
        left alone — their expiry path decides re-queue vs quarantine.
        """
        failed = 0
        with self._lock:
            while self._queue:
                index, attempt = self._queue.popleft()
                if index in self._resolved:
                    continue
                self._resolved.add(index)
                self.events.put(("failed", index, {
                    "type": "NoWorkersLeft", "message": reason,
                    "traceback": "", "attempts": attempt + 1}))
                failed += 1
        return failed

    def expire_worker(self, worker: str) -> None:
        """Expire every lease ``worker`` holds, now: it is known dead.

        The executor calls this when a local worker process has exited,
        so its cell takes the lease-expiry path at once (re-queue at the
        same attempt, or quarantine) instead of waiting out the ttl.
        """
        with self._lock:
            for lease in self._leases.values():
                if lease.worker == worker:
                    lease.deadline = float("-inf")
        self._reap_expired()

    # -- protocol ------------------------------------------------------
    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "hello":
            return {"op": "ok", "total": len(self.cells),
                    "outstanding": self.outstanding()}
        if op == "lease":
            return self._handle_lease(str(request.get("worker", "?")))
        if op == "heartbeat":
            return self._handle_heartbeat(request)
        if op == "complete":
            return self._handle_complete(request)
        if op == "fail":
            return self._handle_fail(request)
        return {"op": "error", "message": f"unknown op {op!r}"}

    def _handle_lease(self, worker: str) -> dict:
        self._reap_expired()
        with self._lock:
            while self._queue:
                index, attempt = self._queue.popleft()
                if index in self._resolved:
                    continue  # completed while re-queued
                spec = self.cells[index]
                lease = _Lease(index, task_key(spec), attempt, worker,
                               self.lease_ttl)
                self._leases[index] = lease
                return {"op": "task", "index": index, "key": lease.key,
                        "attempt": attempt, "nonce": lease.nonce,
                        "ttl": self.lease_ttl, "spec": _encode_spec(spec)}
            if len(self._resolved) == len(self.cells):
                return {"op": "done"}
            return {"op": "wait"}

    def _handle_heartbeat(self, request: dict) -> dict:
        with self._lock:
            lease = self._leases.get(request.get("index"))
            if lease is None or lease.nonce != request.get("nonce"):
                # Lease lost (expired and re-queued, or already
                # resolved).  The worker may finish and submit anyway —
                # completion is idempotent — but should stop renewing.
                return {"op": "abandon"}
            lease.extend(self.lease_ttl)
            return {"op": "ok"}

    def _handle_complete(self, request: dict) -> dict:
        index = request.get("index")
        payload = request.get("payload") or {}
        with self._lock:
            if index not in self.cells:
                return {"op": "error", "message": f"unknown cell {index!r}"}
            if index in self._resolved:
                # Duplicate completion: two hosts finished the same
                # key.  Cells are deterministic, so first-wins is
                # exactly as correct as any other choice — acknowledge
                # and drop.
                return {"op": "ok", "accepted": False}
            lease = self._leases.pop(index, None)
            attempts = (lease.attempt if lease is not None
                        else int(request.get("attempt", 0))) + 1
            self._resolved.add(index)
            self.events.put(("complete", index, payload, attempts))
            return {"op": "ok", "accepted": True}

    def _handle_fail(self, request: dict) -> dict:
        index = request.get("index")
        error = request.get("error") or {}
        with self._lock:
            if index not in self.cells or index in self._resolved:
                return {"op": "ok", "accepted": False}
            lease = self._leases.get(index)
            if lease is None or lease.nonce != request.get("nonce"):
                # A stale lease holder failing after its re-queue must
                # not double-charge the cell's retry budget.
                return {"op": "ok", "accepted": False}
            del self._leases[index]
            attempt = lease.attempt + 1
            if attempt > self.retries:
                error = dict(error)
                error.setdefault("attempts", attempt)
                self._resolved.add(index)
                self.events.put(("failed", index, error))
            else:
                self._queue.append((index, attempt))
            return {"op": "ok", "accepted": True}

    # -- lease expiry --------------------------------------------------
    def _reap_loop(self) -> None:
        while not self._stopping.wait(self.lease_ttl / 4.0):
            self._reap_expired()

    def _reap_expired(self) -> None:
        now = time.monotonic()
        with self._lock:
            for index in [i for i, lease in self._leases.items()
                          if lease.deadline <= now]:
                lease = self._leases.pop(index)
                self.requeue_counts[index] += 1
                if self.requeue_counts[index] > self.max_requeues:
                    # Crash quarantine: this cell keeps killing the
                    # workers that touch it.
                    self._resolved.add(index)
                    self.events.put(("failed", index, {
                        "type": "LeaseExpired",
                        "message": (f"lease expired "
                                    f"{self.requeue_counts[index]} times "
                                    f"(last worker {lease.worker!r}); cell "
                                    f"presumed to crash its workers"),
                        "traceback": "",
                        "attempts": lease.attempt + 1,
                    }))
                else:
                    # Worker loss is not the cell's fault: re-queue at
                    # the *same* attempt.
                    self._queue.append((index, lease.attempt))


class CoordinatorClient:
    """One worker's view of the leader: request/response over TCP."""

    def __init__(self, address: tuple[str, int] | str,
                 timeout: float = 10.0):
        if isinstance(address, str):
            host, port = parse_address(address)
        else:
            host, port = address
        self.address = (host or "127.0.0.1", int(port))
        self.timeout = timeout

    def call(self, request: dict) -> dict:
        with socket.create_connection(self.address,
                                      timeout=self.timeout) as conn:
            conn.sendall((json.dumps(request) + "\n").encode("utf-8"))
            with conn.makefile("r", encoding="utf-8") as fh:
                line = fh.readline()
        if not line.strip():
            raise ConnectionError("empty response from coordinator")
        return json.loads(line)

    # Convenience wrappers -------------------------------------------------
    def hello(self) -> dict:
        return self.call({"op": "hello"})

    def lease(self, worker: str) -> dict:
        response = self.call({"op": "lease", "worker": worker})
        if response.get("op") == "task":
            response["spec"] = _decode_spec(response["spec"])
        return response

    def heartbeat(self, worker: str, index: int, nonce: str) -> dict:
        return self.call({"op": "heartbeat", "worker": worker,
                          "index": index, "nonce": nonce})

    def complete(self, worker: str, index: int, key: str, nonce: str,
                 payload: dict) -> dict:
        return self.call({"op": "complete", "worker": worker, "index": index,
                          "key": key, "nonce": nonce, "payload": payload})

    def fail(self, worker: str, index: int, key: str, nonce: str,
             error: dict) -> dict:
        return self.call({"op": "fail", "worker": worker, "index": index,
                          "key": key, "nonce": nonce, "error": error})
