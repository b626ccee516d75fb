"""Grid worker: lease cells from a coordinator, execute, report back.

:func:`run_worker` is the whole worker lifecycle — it runs identically
as a leader-forked local process and as ``repro join host:port`` on a
different machine.  Each leased cell executes through the same
:func:`~repro.parallel.worker.execute_task` the sequential path runs, so
a multi-host sweep computes bit-identical metrics to a single-host one.

While a cell trains, a daemon heartbeat thread renews the lease every
``ttl / 3``; if the worker is SIGKILLed the beats stop and the leader
re-queues the cell after the lease expires.  If the leader tells a
heartbeat ``abandon`` (the lease was re-queued under a network pause),
the worker still finishes and submits — completion is idempotent at the
leader, so the duplicate is acknowledged and dropped.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid

from ..blas import pin_forked_worker
from .coordinator import CoordinatorClient

__all__ = ["run_worker", "spawn_local_workers"]


def _worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


class _Heartbeat:
    """Renews one lease on a cadence until stopped."""

    def __init__(self, client: CoordinatorClient, worker: str, index: int,
                 nonce: str, interval: float):
        self._client = client
        self._worker = worker
        self._index = index
        self._nonce = nonce
        self._interval = interval
        self._stop = threading.Event()
        self.abandoned = False
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"lease-heartbeat-{index}")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=self._interval * 2)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                reply = self._client.heartbeat(self._worker, self._index,
                                               self._nonce)
            except OSError:
                continue  # transient network noise; the lease has slack
            if reply.get("op") == "abandon":
                # Keep computing: the result is deterministic and the
                # leader accepts the first completion from anyone.
                self.abandoned = True
                return


def run_worker(address: tuple[str, int] | str,
               worker_id: str | None = None,
               checkpoint_dir: str | None = None,
               poll_s: float = 0.1,
               max_cells: int | None = None) -> int:
    """Lease-execute-report until the coordinator says ``done``.

    Returns the number of cells whose completion this worker submitted
    first.  ``max_cells`` bounds the number of *executed* cells (fault
    drills lease one cell and stop).  Transient connection failures are
    retried; a coordinator that stays unreachable for ~30s means the
    sweep is over and the worker exits.
    """
    from .worker import execute_task  # deferred: imports numpy stack

    client = CoordinatorClient(address)
    worker = worker_id or _worker_id()
    completed = 0
    executed = 0
    unreachable_since: float | None = None
    while True:
        if max_cells is not None and executed >= max_cells:
            return completed
        try:
            response = client.lease(worker)
        except OSError:
            if unreachable_since is None:
                unreachable_since = time.monotonic()
            elif time.monotonic() - unreachable_since > 30.0:
                return completed  # leader gone: sweep finished or died
            time.sleep(poll_s)
            continue
        unreachable_since = None
        op = response.get("op")
        if op == "done":
            return completed
        if op != "task":
            time.sleep(poll_s)
            continue

        index = response["index"]
        key = response["key"]
        nonce = response["nonce"]
        attempt = response["attempt"]
        spec = response["spec"]
        interval = max(float(response.get("ttl", 10.0)) / 3.0, 0.05)
        executed += 1
        try:
            with _Heartbeat(client, worker, index, nonce, interval):
                payload = execute_task(spec, attempt, checkpoint_dir)
        except Exception as exc:
            error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(traceback.format_exception(
                    type(exc), exc, exc.__traceback__)),
            }
            try:
                client.fail(worker, index, key, nonce, error)
            except OSError:
                pass  # the lease will expire and re-queue on its own
        else:
            try:
                reply = client.complete(worker, index, key, nonce, payload)
            except OSError:
                pass  # idempotent: another holder (or retry) will land it
            else:
                if reply.get("accepted"):
                    completed += 1


def _local_worker_main(address: tuple[str, int], worker_id: str,
                       checkpoint_dir: str | None,
                       listener: socket.socket | None) -> None:
    """Forked-process entry point."""
    if listener is not None:
        # The child's copy of the leader's listening socket would keep
        # the port accepting connections after the leader closes it.
        listener.close()
    pin_forked_worker()
    run_worker(address, worker_id=worker_id, checkpoint_dir=checkpoint_dir)


def spawn_local_workers(address: tuple[str, int], count: int,
                        checkpoint_dir: str | None = None,
                        first: int = 0,
                        listener: socket.socket | None = None) -> list:
    """Fork ``count`` worker processes against ``address``.

    Worker ``n`` leases as ``local-<n>``, counting from ``first``, and
    the process carries that id as its ``name``, so the leader can
    expire a dead worker's leases by name.  Fork, not spawn: a spawned
    worker pays a fresh interpreter and NumPy import, and its resource
    tracker another process.  Each runs one BLAS thread
    (:mod:`repro.blas`); ``repro join``, which the operator starts,
    keeps BLAS's default.  ``listener``, the leader's listening socket
    (``Coordinator.listener``), is closed first thing in each child, so
    a port the leader has closed refuses connections while its workers
    live.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    procs = []
    for n in range(first, first + count):
        worker_id = f"local-{n}"
        proc = ctx.Process(target=_local_worker_main, name=worker_id,
                           args=(address, worker_id, checkpoint_dir,
                                 listener),
                           daemon=True)
        proc.start()
        procs.append(proc)
    return procs
