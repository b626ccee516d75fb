"""GridExecutor: determinism, caching, retries, fault isolation."""

import hashlib
import math

import numpy as np
import pytest

from repro.blas import blas_threads
from repro.parallel import (
    DEFAULT_LEASE_TTL,
    GridExecutor,
    RunCache,
    SweepError,
    task_key,
)
from repro.parallel import executor as executor_mod
from repro.parallel import format_timing_summary
from repro.parallel import worker as worker_mod


def assert_metrics_identical(a, b):
    """Exact float equality per metric, treating NaN == NaN as equal
    (an undefined metric must be undefined in both runs)."""
    assert set(a) == set(b)
    for name in a:
        assert a[name] == b[name] or (math.isnan(a[name])
                                      and math.isnan(b[name])), name


def test_sequential_success_in_input_order(make_spec):
    specs = [make_spec(seed=s) for s in (0, 1)]
    results = GridExecutor(workers=1).run(specs)
    assert [r.spec for r in results] == specs
    for r in results:
        assert r.ok and not r.cached and r.attempts == 1
        assert set(r.metrics) == {"f1", "fpr", "auc_roc"}
        assert r.key == task_key(r.spec)


def test_parallel_is_bit_identical_to_sequential(make_spec):
    specs = [make_spec(seed=s, eta=eta)
             for s in (0, 1) for eta in (0.2, 0.4)]
    sequential = GridExecutor(workers=1).run(specs)
    parallel = GridExecutor(workers=2).run(specs)
    for seq, par in zip(sequential, parallel):
        assert_metrics_identical(par.metrics, seq.metrics)


def _report_blas_threads(spec, attempt, checkpoint_dir):
    return {"metrics": {"blas_threads": blas_threads()}, "seconds": 0.0}


def test_pool_workers_run_one_blas_thread(make_spec, two_blas_threads,
                                          monkeypatch):
    # Forked local workers inherit the patched cell function.
    monkeypatch.setattr(worker_mod, "execute_task", _report_blas_threads)
    results = GridExecutor(workers=2).run(
        [make_spec(seed=s) for s in range(4)])
    assert [r.metrics for r in results] == [{"blas_threads": 1}] * 4
    assert blas_threads() == 2  # the parent keeps its pool


def _gemm(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 512, 512))
    return blas_threads(), a @ b


def _gemm_cell(spec, attempt, checkpoint_dir):
    threads, product = _gemm(7)
    return {"metrics": {"blas_threads": threads,
                        "sha256": hashlib.sha256(product.tobytes())
                        .hexdigest()},
            "seconds": 0.0}


def test_one_thread_gemm_is_bit_identical_to_parent(make_spec,
                                                    two_blas_threads,
                                                    monkeypatch):
    # 512^3 is far past the size at which OpenBLAS splits a GEMM over
    # its threads, so the parent's product is computed by two.
    threads, parent = _gemm(7)
    assert threads == 2
    monkeypatch.setattr(worker_mod, "execute_task", _gemm_cell)
    [worker] = GridExecutor(workers=2).run([make_spec()])
    assert worker.metrics == {
        "blas_threads": 1,
        "sha256": hashlib.sha256(parent.tobytes()).hexdigest()}


def test_cache_skips_recompute(make_spec, tmp_path, monkeypatch):
    cache = RunCache(tmp_path / "cache")
    specs = [make_spec(seed=s) for s in (0, 1)]
    cold = GridExecutor(cache=cache).run(specs)
    assert all(not r.cached for r in cold)
    assert len(cache) == 2

    # Warm run: every cell must come from the cache — make any actual
    # execution blow up to prove none happens.
    def boom(spec, attempt=0, checkpoint_dir=None):
        raise AssertionError("cache miss: executed a cached cell")

    monkeypatch.setattr(executor_mod, "execute_task", boom)
    warm = GridExecutor(cache=cache).run(specs)
    assert all(r.cached for r in warm)
    for cold_r, warm_r in zip(cold, warm):
        assert_metrics_identical(warm_r.metrics, cold_r.metrics)


def test_cache_survives_executor_restart(make_spec, tmp_path):
    specs = [make_spec(seed=0)]
    GridExecutor(cache=str(tmp_path / "cache")).run(specs)
    # Fresh executor, fresh RunCache object over the same directory.
    warm = GridExecutor(cache=str(tmp_path / "cache")).run(specs)
    assert warm[0].cached


def test_failures_are_recorded_not_raised(make_spec):
    specs = [make_spec(seed=0), make_spec(seed=1, failpoint="raise")]
    results = GridExecutor(retries=1).run(specs)
    assert results[0].ok
    failed = results[1]
    assert not failed.ok and failed.attempts == 2
    assert failed.error["type"] == "RuntimeError"
    assert "injected failure" in failed.error["message"]
    assert "Traceback" in failed.error["traceback"]


def test_flaky_cell_recovers_on_retry(make_spec):
    results = GridExecutor(retries=1).run([make_spec(failpoint="flaky:1")])
    assert results[0].ok and results[0].attempts == 2


def test_retries_zero_fails_fast(make_spec):
    results = GridExecutor(retries=0).run([make_spec(failpoint="flaky:1")])
    assert not results[0].ok and results[0].attempts == 1


def test_failures_are_never_cached(make_spec, tmp_path):
    cache = RunCache(tmp_path / "cache")
    GridExecutor(cache=cache, retries=0).run([make_spec(failpoint="raise")])
    assert len(cache) == 0


def test_pool_failures_recorded_without_aborting(make_spec):
    specs = [make_spec(seed=0), make_spec(seed=1, failpoint="raise"),
             make_spec(seed=2)]
    results = GridExecutor(workers=2, retries=0).run(specs)
    assert results[0].ok and results[2].ok
    assert not results[1].ok
    assert results[1].error["type"] == "RuntimeError"


def test_crash_is_quarantined_without_charging_victims(make_spec):
    """A worker dying outright must not burn innocent cells' retries,
    and its cell must not wait out a lease before it re-queues."""
    specs = [make_spec(seed=0), make_spec(seed=1, failpoint="crash"),
             make_spec(seed=2)]
    executor = GridExecutor(workers=2, retries=1)
    results = executor.run(specs)
    crashed = results[1]
    assert not crashed.ok
    assert crashed.error["type"] == "LeaseExpired"
    assert "presumed to crash" in crashed.error["message"]
    for victim in (results[0], results[2]):
        assert victim.ok and victim.attempts == 1
    # The crash cell kills four workers before its quarantine; waiting
    # out even one of their leases would take the whole default ttl.
    assert executor.lease_ttl == DEFAULT_LEASE_TTL
    assert executor.last_wall_seconds < DEFAULT_LEASE_TTL


def test_sweep_error_message(make_spec):
    results = GridExecutor(retries=0).run([make_spec(failpoint="raise")])
    err = SweepError([r for r in results if not r.ok])
    assert "1 grid cell(s) failed" in str(err)
    assert "RuntimeError" in str(err)


def test_executor_validates_arguments():
    with pytest.raises(ValueError):
        GridExecutor(workers=0)
    with pytest.raises(ValueError):
        GridExecutor(retries=-1)
    with pytest.raises(TypeError):
        GridExecutor(workers=2, coordinate=True)


def test_timing_summary_reports_all_outcomes(make_spec, tmp_path):
    cache = RunCache(tmp_path / "cache")
    GridExecutor(cache=cache).run([make_spec(seed=0)])
    executor = GridExecutor(cache=cache, retries=0)
    results = executor.run([make_spec(seed=0), make_spec(seed=1),
                            make_spec(seed=2, failpoint="raise")])
    text = format_timing_summary(results, executor.last_wall_seconds)
    assert "1 computed, 1 cached, 1 failed" in text
    assert "wall time" in text and "slowest" in text and "failed:" in text


def test_progress_lines_emitted(make_spec):
    lines = []
    executor = GridExecutor(progress=lines.append, retries=0)
    executor.run([make_spec(seed=0), make_spec(seed=1, failpoint="raise")])
    assert len(lines) == 2
    assert lines[0].startswith("[1/2]")
    assert any("FAILED" in line for line in lines)


def test_progress_eta_divides_by_live_worker_count(make_spec):
    """The ETA divisor follows a callable worker count — under multi-host
    execution the live lease-holder total, not the local pool width."""
    workers = {"n": 1}
    progress = executor_mod._Progress(total=5, workers=lambda: workers["n"],
                                      emit=lambda line: None)
    progress._compute_seconds = [8.0]
    progress.done = 1
    one_worker = progress._eta()
    assert "eta 32s" in one_worker  # 8s/cell * 4 remaining / 1 worker
    workers["n"] = 4
    assert "eta 8s" in progress._eta()  # same state, 4x the hosts


def test_all_cached_run_reports_total_elapsed(make_spec, tmp_path):
    cache = RunCache(tmp_path / "cache")
    specs = [make_spec(seed=0), make_spec(seed=1)]
    GridExecutor(cache=cache).run(specs)
    lines = []
    GridExecutor(cache=cache, progress=lines.append).run(specs)
    assert all("cached" in line for line in lines)
    assert lines[-1].startswith("all 2 cell(s) cached")
    assert "elapsed" in lines[-1]


def test_partially_cached_run_has_no_all_cached_summary(make_spec, tmp_path):
    cache = RunCache(tmp_path / "cache")
    GridExecutor(cache=cache).run([make_spec(seed=0)])
    lines = []
    GridExecutor(cache=cache, progress=lines.append).run(
        [make_spec(seed=0), make_spec(seed=1)])
    assert not any(line.startswith("all ") for line in lines)
