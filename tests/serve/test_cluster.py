"""ClusterEngine: bit-identity, shard affinity, reloads, worker
environment, worker death.

One module-scoped two-worker cluster serves the cheap assertions (the
rolling-reload test runs last — it advances the cluster's generation);
the worker-environment test starts its own one-worker cluster under a
patched environment, and the worker-kill and clean-close tests spin up
their own clusters because they end them.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import load_clfd
from repro.serve import (ClusterEngine, HashRing, InferenceEngine,
                         RequestError, ServeConfig, TenantRateLimiter)
from repro.serve.cluster import _BLAS_THREAD_VARS, _worker_blas_env

CLUSTER_CONFIG = ServeConfig(workers=2, max_wait_ms=1.0, max_batch=8)


@pytest.fixture(scope="module")
def cluster(served_archive):
    with ClusterEngine(served_archive, CLUSTER_CONFIG) as eng:
        yield eng


@pytest.fixture(scope="module")
def single(served_archive):
    with InferenceEngine.from_archive(
            served_archive, CLUSTER_CONFIG.replace(workers=1)) as eng:
        yield eng


def _payloads(n, prefix="s", tokens=False):
    id_activities = [[1, 2, 3], [2, 1], [3, 3, 1, 2]]
    token_activities = [["login", "email"], ["web", "login", "logon"]]
    pool = token_activities if tokens else id_activities
    return [{"activities": pool[i % len(pool)],
             "session_id": f"{prefix}{i}"} for i in range(n)]


# ----------------------------------------------------------------------
# Hash ring
# ----------------------------------------------------------------------
def test_ring_is_deterministic():
    a, b = HashRing([0, 1, 2]), HashRing([2, 1, 0])
    keys = [f"session-{i}" for i in range(200)]
    assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]


def test_ring_spreads_and_rebalances_minimally():
    ring = HashRing([0, 1, 2, 3])
    keys = [f"session-{i}" for i in range(2000)]
    before = {k: ring.lookup(k) for k in keys}
    counts = {node: 0 for node in ring.nodes}
    for owner in before.values():
        counts[owner] += 1
    assert min(counts.values()) > 0  # nobody starves
    ring.remove(2)
    moved = sum(1 for k in keys
                if before[k] != ring.lookup(k) and before[k] != 2)
    assert moved == 0  # only the dead node's keys move
    assert all(ring.lookup(k) != 2 for k in keys)


def test_empty_ring_raises():
    with pytest.raises(KeyError):
        HashRing().lookup("x")


# ----------------------------------------------------------------------
# Module cluster (order matters: the reload test runs last)
# ----------------------------------------------------------------------
def test_cluster_scores_bit_identical_to_single_process(cluster, single):
    payloads = _payloads(24) + _payloads(8, prefix="t", tokens=True)
    expected = single.score_many(payloads)
    got = cluster.score_many(payloads)
    for ref, res in zip(expected, got):
        assert res.score == ref.score  # exact float equality
        assert res.label == ref.label
        assert res.probs == ref.probs
        assert res.oov_count == ref.oov_count
    assert {r.worker for r in got} == {0, 1}
    assert all(r.generation == 0 for r in got)


def test_cluster_score_many_beyond_max_queue(served_archive, single):
    payloads = _payloads(200, prefix="bulk-")
    config = CLUSTER_CONFIG.replace(max_queue=8)
    with ClusterEngine(served_archive, config) as eng:
        got = eng.score_many(payloads)
    expected = [single.score(p) for p in payloads]
    assert [r.session_id for r in got] == [p["session_id"]
                                           for p in payloads]
    assert [r.score for r in got] == [r.score for r in expected]


def test_sessions_shard_by_consistent_hash(cluster):
    payloads = _payloads(32, prefix="affinity-")
    results = cluster.score_many(payloads)
    # Placement matches an independently-built ring (deterministic
    # across processes), and repeat requests stick to their shard.
    ring = HashRing(range(2))
    for payload, result in zip(payloads, results):
        assert result.worker == ring.lookup(payload["session_id"])
    again = cluster.score_many(payloads)
    assert [r.worker for r in again] == [r.worker for r in results]


def test_cluster_metrics_aggregate_workers(cluster):
    scored = len(cluster.score_many(_payloads(12, prefix="m")))
    snap = cluster.metrics_snapshot()
    assert set(snap["workers"]) == {"0", "1"}
    per_worker = [snap["workers"][w]["sessions_total"]
                  for w in snap["workers"]]
    assert all(n > 0 for n in per_worker)
    assert snap["workers_combined"]["sessions_total"] == sum(per_worker)
    assert sum(per_worker) >= scored
    assert snap["cluster"]["workers_alive"] == 2
    assert snap["cluster"]["workers_total"] == 2
    assert snap["cluster"]["workers_lost"] == 0
    assert set(snap["cluster"]["shard_queue_depths"]) == {0, 1}

    text = cluster.metrics_prometheus()
    assert "repro_serve_cluster_workers_alive 2" in text
    assert 'repro_serve_worker_sessions_total{worker="0"}' in text
    assert 'repro_serve_worker_sessions_total{worker="1"}' in text
    assert 'repro_serve_shard_queue_depth{worker="0"}' in text


def test_cluster_rate_limits_per_tenant(cluster):
    class FakeClock:
        now = 0.0

        def __call__(self):
            return self.now

    saved = cluster._limiter
    cluster._limiter = TenantRateLimiter(rate=1.0, burst=4.0,
                                         clock=FakeClock())
    try:
        cluster.score_many(_payloads(4, prefix="rl"), tenant="noisy")
        with pytest.raises(RequestError) as excinfo:
            cluster.score(_payloads(1)[0], tenant="noisy")
        assert excinfo.value.code == "rate_limited"
        assert excinfo.value.status == 429
        # Other tenants are unaffected.
        cluster.score_many(_payloads(4, prefix="rl2"), tenant="quiet")
    finally:
        cluster._limiter = saved


def test_rolling_reload_is_atomic_and_bit_consistent(
        cluster, served_archive_v2):
    """Runs last on the shared cluster: flips it to generation 1."""
    payloads = _payloads(16, prefix="reload-")
    # Requests in flight when the reload lands must resolve against the
    # generation that accepted them.
    in_flight = [cluster.submit(p) for p in payloads]
    gen = cluster.reload(served_archive_v2)
    assert gen == 1
    old = [f.result(timeout=30) for f in in_flight]
    assert all(r.generation == 0 for r in old)
    # Post-flip scores are bit-identical to a fresh single-process
    # engine over the new archive.
    with InferenceEngine(load_clfd(served_archive_v2),
                         ServeConfig(max_wait_ms=1.0)) as fresh:
        expected = fresh.score_many(payloads)
    got = cluster.score_many(payloads)
    assert all(r.generation == 1 for r in got)
    for ref, res in zip(expected, got):
        assert res.score == ref.score
    assert cluster.generation == 1
    assert cluster.metrics_snapshot()["cluster"]["generation"] == 1


# ----------------------------------------------------------------------
# Worker BLAS threads
# ----------------------------------------------------------------------
def test_worker_blas_env_pins_one_thread_unless_set():
    assert _worker_blas_env({}) == {name: "1" for name in _BLAS_THREAD_VARS}
    assert _worker_blas_env({"OPENBLAS_NUM_THREADS": "4", "PATH": "/x"}) == {
        "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


def test_worker_start_leaves_parent_environ_unchanged(served_archive,
                                                      monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")  # the operator's choice
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with ClusterEngine(served_archive,
                       CLUSTER_CONFIG.replace(workers=1)) as eng:
        assert dict(os.environ) == before
        pid = eng._clients[0].process.pid
        with open(f"/proc/{pid}/environ", "rb") as fh:
            worker_env = dict(entry.decode().split("=", 1)
                              for entry in fh.read().split(b"\0") if entry)
    assert dict(os.environ) == before
    assert {name: worker_env.get(name) for name in _BLAS_THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": "1"}


# ----------------------------------------------------------------------
# Worker death (own cluster: it leaves a corpse)
# ----------------------------------------------------------------------
def test_worker_death_resharding_and_shutdown(served_archive, single):
    eng = ClusterEngine(served_archive, CLUSTER_CONFIG)
    try:
        payloads = _payloads(24, prefix="kill-")
        expected = {r.session_id: r.score
                    for r in single.score_many(payloads)}
        assert {r.worker for r in eng.score_many(payloads)} == {0, 1}

        victim = eng._clients[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)

        # A bounded number of requests may 503 while the death is
        # detected; everything converges onto the survivor.
        deadline = time.monotonic() + 30
        errors = 0
        results = []
        while len(results) < len(payloads):
            assert time.monotonic() < deadline, "cluster never converged"
            try:
                results = eng.score_many(payloads, timeout=30)
            except RequestError as exc:
                assert exc.status == 503
                assert exc.code in ("worker_lost", "no_workers")
                errors += 1
                assert errors < 200
        assert all(r.worker == 1 for r in results)
        for r in results:
            assert r.score == expected[r.session_id]  # still exact
        assert eng.workers_alive == [1]
        health = eng.health()
        assert health["workers_alive"] == 1
        assert health["workers_total"] == 2
        snap = eng.metrics_snapshot()
        assert snap["cluster"]["workers_lost"] == 1
        assert set(snap["workers"]) == {"1"}
    finally:
        eng.close()


def test_clean_close_loses_no_workers(served_archive):
    """Regression: each worker's exit after its stop ack read as a death,
    so a graceful close counted workers as lost."""
    eng = ClusterEngine(served_archive, CLUSTER_CONFIG)
    eng.score_many(_payloads(8, prefix="bye-"))
    eng.close()
    assert eng.workers_lost == 0
    assert eng.workers_alive == [0, 1]
