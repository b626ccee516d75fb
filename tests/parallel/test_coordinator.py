"""Multi-host coordinator: protocol semantics and fault drills.

The protocol tests drive a live Coordinator through CoordinatorClient
calls from the test process (a "worker" that is just the test), so
lease/heartbeat/re-queue/idempotency semantics are exercised without
process-start latency.  The drills at the bottom use real forked
workers, including a SIGKILL mid-cell.
"""

import math
import os
import signal
import socket
import time

import pytest

from repro.blas import blas_threads
from repro.parallel import (
    Coordinator,
    CoordinatorClient,
    GridExecutor,
    parse_address,
    run_worker,
    spawn_local_workers,
)
from repro.parallel import worker as worker_mod
from repro.parallel.worker import execute_task


def assert_metrics_identical(a, b):
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name] or (math.isnan(a[name])
                                      and math.isnan(b[name])), name


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def leader(make_spec):
    """A started coordinator over two real cells + a client; stops after."""
    coordinator = Coordinator({0: make_spec(seed=0), 1: make_spec(seed=1)},
                              lease_ttl=0.4)
    address = coordinator.start(None)
    try:
        yield coordinator, CoordinatorClient(address)
    finally:
        coordinator.stop()


def test_parse_address():
    assert parse_address("10.0.0.5:7787") == ("10.0.0.5", 7787)
    assert parse_address(":7787") == ("0.0.0.0", 7787)
    assert parse_address("7787") == ("0.0.0.0", 7787)
    assert parse_address(None) == ("127.0.0.1", 0)


def test_lease_complete_flow(leader):
    coordinator, client = leader
    assert client.hello() == {"op": "ok", "total": 2, "outstanding": 2}
    lease = client.lease("w1")
    assert lease["op"] == "task"
    assert lease["spec"].seed in (0, 1)  # round-trips through base64
    payload = {"metrics": {"f1": 1.0}, "seconds": 0.1}
    reply = client.complete("w1", lease["index"], lease["key"],
                            lease["nonce"], payload)
    assert reply["accepted"] is True
    kind, index, got, attempts = coordinator.events.get(timeout=2)
    assert (kind, index, got, attempts) == ("complete", lease["index"],
                                            payload, 1)
    assert coordinator.outstanding() == 1


def test_duplicate_completion_is_idempotent(leader):
    coordinator, client = leader
    lease = client.lease("w1")
    payload = {"metrics": {"f1": 1.0}, "seconds": 0.1}
    first = client.complete("w1", lease["index"], lease["key"],
                            lease["nonce"], payload)
    dup = client.complete("w2", lease["index"], lease["key"],
                          lease["nonce"],
                          {"metrics": {"f1": 0.0}, "seconds": 9.9})
    assert first["accepted"] is True
    assert dup["accepted"] is False
    # Exactly one event, carrying the first payload.
    assert coordinator.events.get(timeout=2)[2] == payload
    assert coordinator.events.empty()


def test_heartbeat_keeps_lease_alive_past_ttl(leader):
    coordinator, client = leader
    lease = client.lease("w1")
    deadline = time.monotonic() + 1.2  # 3x the 0.4s ttl
    while time.monotonic() < deadline:
        reply = client.heartbeat("w1", lease["index"], lease["nonce"])
        assert reply["op"] == "ok"
        time.sleep(0.1)
    assert coordinator.requeue_counts[lease["index"]] == 0
    assert client.complete("w1", lease["index"], lease["key"],
                           lease["nonce"],
                           {"metrics": {}, "seconds": 0})["accepted"]


def test_silent_worker_death_requeues_exactly_once_at_same_attempt(leader):
    """A worker that stops heartbeating (SIGKILL, partition) loses the
    lease; the cell re-queues once, uncharged."""
    coordinator, client = leader
    lease = client.lease("w1")  # ... and the "worker" dies here
    assert wait_until(lambda: coordinator.requeue_counts[lease["index"]] == 1,
                      timeout=5)
    releases = [client.lease("w2"), client.lease("w2")]
    indexes = sorted(r["index"] for r in releases)
    assert indexes == [0, 1]  # the lost cell is available again
    release = next(r for r in releases if r["index"] == lease["index"])
    assert release["attempt"] == lease["attempt"] == 0  # not charged
    assert release["nonce"] != lease["nonce"]
    # The dead worker's heartbeat (were it to resurrect) is refused.
    assert client.heartbeat("w1", lease["index"],
                            lease["nonce"])["op"] == "abandon"
    # Exactly once: no further re-queue accrues while w2 heartbeats.
    client.heartbeat("w2", release["index"], release["nonce"])
    assert coordinator.requeue_counts[lease["index"]] == 1


def test_repeated_lease_expiry_quarantines_cell(make_spec):
    coordinator = Coordinator({7: make_spec(seed=0)}, lease_ttl=0.15,
                              max_requeues=1)
    address = coordinator.start(None)
    try:
        client = CoordinatorClient(address)
        assert client.lease("w1")["op"] == "task"
        assert wait_until(lambda: coordinator.requeue_counts[7] == 1)
        assert client.lease("w2")["op"] == "task"  # second (last) chance
        kind, index, error = coordinator.events.get(timeout=5)
        assert (kind, index) == ("failed", 7)
        assert error["type"] == "LeaseExpired"
        assert "presumed to crash" in error["message"]
        assert coordinator.done
        assert client.lease("w3")["op"] == "done"
    finally:
        coordinator.stop()


def test_reported_failure_charges_attempt_then_fails(make_spec):
    coordinator = Coordinator({0: make_spec(seed=0)}, retries=1,
                              lease_ttl=30.0)
    address = coordinator.start(None)
    try:
        client = CoordinatorClient(address)
        error = {"type": "RuntimeError", "message": "boom", "traceback": ""}
        lease = client.lease("w1")
        assert client.fail("w1", 0, lease["key"], lease["nonce"],
                           error)["accepted"]
        release = client.lease("w1")
        assert release["attempt"] == 1  # execution failures are charged
        assert client.fail("w1", 0, release["key"], release["nonce"],
                           error)["accepted"]
        kind, index, record = coordinator.events.get(timeout=2)
        assert (kind, index) == ("failed", 0)
        assert record["type"] == "RuntimeError"
        assert record["attempts"] == 2
    finally:
        coordinator.stop()


def test_stale_lease_failure_is_not_double_charged(leader):
    coordinator, client = leader
    lease = client.lease("w1")
    assert wait_until(lambda: coordinator.requeue_counts[lease["index"]] == 1)
    stale = client.fail("w1", lease["index"], lease["key"], lease["nonce"],
                        {"type": "X", "message": "", "traceback": ""})
    assert stale["accepted"] is False
    releases = [client.lease("w2"), client.lease("w2")]
    release = next(r for r in releases if r["index"] == lease["index"])
    assert release["attempt"] == 0  # stale failure charged nothing
    assert coordinator.events.empty()


def test_fail_queued_resolves_only_unleased_cells(leader):
    coordinator, client = leader
    lease = client.lease("w1")
    assert coordinator.fail_queued("no workers") == 1
    kind, index, record = coordinator.events.get(timeout=2)
    assert kind == "failed" and index != lease["index"]
    assert record["type"] == "NoWorkersLeft"
    # The leased cell is untouched and can still complete.
    assert client.complete("w1", lease["index"], lease["key"],
                           lease["nonce"],
                           {"metrics": {}, "seconds": 0})["accepted"]


# ----------------------------------------------------------------------
# Drills with real workers
# ----------------------------------------------------------------------
def test_sigkill_worker_mid_cell_recovers_bit_identical(make_spec):
    """The headline drill: SIGKILL a worker mid-cell.  The lease expires,
    the cell re-queues exactly once, a surviving worker finishes it, and
    the metrics are bit-identical to sequential execution."""
    # Scale up so the cell trains long enough to be killed mid-flight.
    spec = make_spec(seed=3)
    import dataclasses
    spec = dataclasses.replace(spec, scale=0.1)
    coordinator = Coordinator({0: spec}, lease_ttl=0.8)
    address = coordinator.start(None)
    procs = []
    try:
        procs = spawn_local_workers(address, 1)
        victim = procs[0]
        assert wait_until(lambda: coordinator.active_workers() == 1,
                          timeout=60), "worker never leased the cell"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert wait_until(lambda: coordinator.requeue_counts[0] == 1,
                          timeout=10), "lease never expired after SIGKILL"
        # A second worker (the test process) steals and finishes the cell.
        completed = run_worker(address, worker_id="survivor", max_cells=2)
        assert completed == 1
        kind, index, payload, attempts = coordinator.events.get(timeout=2)
        assert (kind, index) == ("complete", 0)
        assert attempts == 1  # worker loss charged nothing
        assert coordinator.requeue_counts[0] == 1  # re-queued exactly once
        assert_metrics_identical(payload["metrics"],
                                 execute_task(spec)["metrics"])
    finally:
        coordinator.stop()
        for proc in procs:
            proc.terminate()
            proc.join(timeout=5)


def test_stopped_leader_refuses_connections_while_a_worker_lives(make_spec):
    """A forked worker closes its copy of the leader's listening socket,
    so once the leader stops, connects to its port are refused instead
    of queued in a backlog nobody serves."""
    coordinator = Coordinator({0: make_spec(seed=0)})
    address = coordinator.bind(None)
    listener = coordinator.listener
    procs = []
    try:
        procs = spawn_local_workers(address, 1, listener=listener)
        # The worker closes its copy before its first lease request.
        listener.settimeout(30)
        request, _ = listener.accept()
        request.close()
        coordinator.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=1).close()
        assert procs[0].is_alive()
    finally:
        coordinator.stop()
        for proc in procs:
            proc.terminate()
            proc.join(timeout=5)


def test_coordinated_executor_bit_identical_and_resumable(make_spec,
                                                          tmp_path):
    specs = [make_spec(seed=s) for s in (0, 1, 2)]
    sequential = GridExecutor(workers=1).run(specs)
    coordinated = GridExecutor(workers=2,
                               cache=str(tmp_path / "cache")).run(specs)
    for a, b in zip(sequential, coordinated):
        assert a.ok and b.ok
        assert_metrics_identical(a.metrics, b.metrics)
    # The shared cache makes the sweep resumable as a single-host one.
    resumed = GridExecutor(workers=1,
                           cache=str(tmp_path / "cache")).run(specs)
    assert all(r.cached for r in resumed)
    for a, b in zip(sequential, resumed):
        assert_metrics_identical(a.metrics, b.metrics)


def test_coordinated_executor_records_structured_failures(make_spec):
    specs = [make_spec(seed=0), make_spec(seed=1, failpoint="raise")]
    results = GridExecutor(workers=2, retries=0).run(specs)
    assert results[0].ok
    assert not results[1].ok
    assert results[1].error["type"] == "RuntimeError"
    assert "injected failure" in results[1].error["message"]
    assert results[1].attempts == 1


def _report_blas_threads(spec, attempt, checkpoint_dir):
    return {"metrics": {"blas_threads": blas_threads()}, "seconds": 0.0}


def test_local_worker_start_leaves_parent_environ_unchanged(
        make_spec, two_blas_threads, monkeypatch):
    # Forked local workers inherit the patched cell function.
    monkeypatch.setattr(worker_mod, "execute_task", _report_blas_threads)
    specs = [make_spec(seed=s) for s in (0, 1)]
    before = dict(os.environ)
    pinned = GridExecutor(workers=2).run(specs)
    assert dict(os.environ) == before
    assert [r.metrics for r in pinned] == [{"blas_threads": 1}] * 2

    # A thread variable the operator set wins: the worker skips the pin
    # and keeps the BLAS threads the parent started with.
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    before = dict(os.environ)
    chosen = GridExecutor(workers=2).run(specs)
    assert dict(os.environ) == before
    assert [r.metrics for r in chosen] == [{"blas_threads": 2}] * 2
    assert blas_threads() == 2  # the parent keeps its pool
