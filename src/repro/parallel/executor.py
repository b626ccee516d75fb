"""Fault-isolating grid executor: process pool + run cache + progress.

:class:`GridExecutor` runs a list of :class:`~repro.parallel.tasks.TaskSpec`
cells and returns one :class:`CellResult` per spec, in input order.

* ``workers=1`` (the default, and what the test suite uses) executes
  in-process — the sequential path is the degenerate case of the same
  code, not a separate implementation.
* ``workers>1`` fans cells out over a ``ProcessPoolExecutor``.  Results
  are bit-identical to sequential execution because every cell derives
  all randomness from its own spec (see :mod:`repro.parallel.worker`).
  Each pool worker runs one BLAS thread (:mod:`repro.blas`).
* A :class:`~repro.parallel.cache.RunCache` (optional) is consulted
  before any work is scheduled and updated after every success, so
  interrupted sweeps resume and repeated invocations skip straight
  through.
* Failures never kill the sweep: a raising cell is retried up to
  ``retries`` extra times, then recorded as a structured failure
  (type/message/traceback/attempts) in its result slot.  A worker that
  dies outright (segfault, ``os._exit``) breaks the pool; the executor
  rebuilds it and re-runs each in-flight "suspect" cell in an isolated
  single-worker pool — a cell that crashes its private pool is
  definitively the culprit and consumes its own retry budget, while
  innocent cells that merely shared the broken pool complete unharmed.
* ``coordinate="host:port"`` runs the sweep through the multi-host
  work-stealing tier instead of a process pool: a
  :class:`~repro.parallel.coordinator.Coordinator` leader hands out
  content keys over TCP, ``workers`` local worker processes join
  immediately, and workers on any other host can steal cells with
  ``repro join host:port``.  Completed records land in the shared
  :class:`RunCache`, so a multi-host sweep is bit-identical to — and
  resumable as — a single-host one.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import queue as queue_mod
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..blas import pin_forked_worker
from .cache import RunCache
from .coordinator import DEFAULT_LEASE_TTL
from .tasks import TaskSpec, task_key
from .worker import execute_task

__all__ = ["CellResult", "GridExecutor", "SweepError",
           "format_timing_summary"]


@dataclasses.dataclass
class CellResult:
    """Outcome of one grid cell."""

    spec: TaskSpec
    key: str
    metrics: dict[str, float] | None = None
    error: dict | None = None
    seconds: float = 0.0
    cached: bool = False
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.metrics is not None

    def metrics_preview(self) -> list[tuple[str, float]]:
        """Up to three headline metrics for progress lines."""
        metrics = self.metrics or {}
        order = [k for k in ("f1", "tpr", "tnr") if k in metrics]
        order += [k for k in metrics if k not in order]
        return [(k, metrics[k]) for k in order[:3]]

    def record(self) -> dict:
        """The self-describing record a success is cached as, and what
        :func:`repro.analysis.tables.cross_seed_table` aggregates."""
        spec = self.spec
        return {
            "model": spec.model, "estimator": spec.estimator,
            "dataset": spec.dataset,
            "noise": [spec.noise_kind, list(spec.noise_params)],
            "seed": spec.seed, "scale": spec.scale,
            "measure": spec.measure,
            "metrics": self.metrics, "seconds": self.seconds,
        }


class SweepError(RuntimeError):
    """Raised by runners when cells remain failed after a full sweep.

    The sweep itself completed — every other cell ran (and was cached),
    so a re-run only recomputes the failed cells.  ``failures`` holds
    the failed :class:`CellResult` records.
    """

    def __init__(self, failures: Sequence[CellResult]):
        self.failures = list(failures)
        details = "; ".join(
            f"{r.spec.describe()}: {r.error['type']}: {r.error['message']}"
            for r in self.failures[:5])
        more = f" (+{len(self.failures) - 5} more)" \
            if len(self.failures) > 5 else ""
        super().__init__(
            f"{len(self.failures)} grid cell(s) failed after retries: "
            f"{details}{more}")


def _failure_record(exc: BaseException, attempts: int) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
        "attempts": attempts,
    }


class _Progress:
    """Live per-cell lines with elapsed/ETA, plus a final summary.

    ``workers`` may be an ``int`` (fixed pool width) or a zero-argument
    callable returning the *live* worker count — under multi-host
    execution the divisor is the coordinator's current lease-holder
    count, not the local pool width, or the ETA is off by the number of
    remote hosts.
    """

    def __init__(self, total: int, workers: int | Callable[[], int],
                 emit: Callable[[str], None]):
        self.total = total
        self.workers = workers
        self.emit = emit
        self.done = 0
        self.cached = 0
        self.start = time.perf_counter()
        self._compute_seconds: list[float] = []

    def worker_count(self) -> int:
        workers = self.workers
        if callable(workers):
            workers = workers()
        return max(1, int(workers))

    def update(self, result: CellResult) -> None:
        self.done += 1
        if result.cached:
            self.cached += 1
        elif result.ok:
            self._compute_seconds.append(result.seconds)
        prefix = f"[{self.done:>{len(str(self.total))}d}/{self.total}] "
        cell = f"{result.spec.describe():44s}"
        if result.cached:
            body = "cached"
        elif result.ok:
            shown = ", ".join(f"{k}={v:.1f}"
                              for k, v in result.metrics_preview())
            body = f"{shown}  {result.seconds:.1f}s"
        else:
            body = (f"FAILED after {result.attempts} attempt(s): "
                    f"{result.error['type']}: {result.error['message']}")
        self.emit(prefix + cell + body + self._eta())

    def finish(self) -> None:
        """Summarize the all-cached fast path.

        When every cell resumes from the run cache there are no compute
        samples, so no per-cell line ever carried an elapsed/ETA suffix;
        still report the total elapsed instead of ending silently.
        """
        if self.total and self.cached == self.total:
            elapsed = time.perf_counter() - self.start
            self.emit(f"all {self.total} cell(s) cached  "
                      f"(elapsed {_hms(elapsed)})")

    def _eta(self) -> str:
        remaining = self.total - self.done
        if remaining <= 0 or not self._compute_seconds:
            return ""
        per_cell = sum(self._compute_seconds) / len(self._compute_seconds)
        eta = per_cell * remaining / self.worker_count()
        elapsed = time.perf_counter() - self.start
        return f"  (elapsed {_hms(elapsed)}, eta {_hms(eta)})"


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """A pool of ``workers`` forked processes, one BLAS thread each.

    Fork, not spawn: a spawned worker costs a fresh interpreter and
    NumPy import, and the pool a resource tracker process.
    """
    return ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork"),
        initializer=pin_forked_worker)


def _hms(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{seconds % 3600 // 60:02d}m"


class GridExecutor:
    """Executes a grid of task specs; see module docstring."""

    def __init__(self, workers: int = 1,
                 cache: RunCache | str | None = None,
                 retries: int = 1,
                 progress: bool | Callable[[str], None] = False,
                 checkpoint_dir: str | None = None,
                 coordinate: str | bool | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL):
        if workers < (0 if coordinate else 1):
            raise ValueError("workers must be >= 1 (>= 0 when coordinating "
                             "— a leader may serve remote workers only)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.workers = workers
        self.cache = RunCache(cache) if isinstance(cache, str) else cache
        self.retries = retries
        # Per-cell resumable checkpoints (repro.train): a retried cell
        # resumes from its last phase/epoch snapshot under
        # <checkpoint_dir>/<task_key>/ instead of restarting at epoch 0.
        self.checkpoint_dir = checkpoint_dir
        # Multi-host mode: a listen address ("host:port", ":port", or
        # True for an ephemeral localhost port).  The leader hands out
        # content keys; `workers` local processes join immediately and
        # remote hosts join with `repro join host:port`.
        self.coordinate = coordinate
        self.lease_ttl = lease_ttl
        self.coordinator = None  # live Coordinator while run() executes
        self.coordinator_address: tuple[str, int] | None = None
        if progress is True:
            self._emit = lambda line: print(line, flush=True)
        elif callable(progress):
            self._emit = progress
        else:
            self._emit = None
        self.last_wall_seconds = 0.0

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TaskSpec]) -> list[CellResult]:
        """Execute every spec; returns results in input order."""
        specs = list(specs)
        start = time.perf_counter()
        progress = _Progress(len(specs), self.workers, self._emit) \
            if self._emit else None
        results: list[CellResult | None] = [None] * len(specs)

        todo: list[int] = []
        for i, spec in enumerate(specs):
            key = task_key(spec)
            record = self.cache.get(key) if self.cache is not None else None
            if record is not None and isinstance(record.get("metrics"), dict):
                results[i] = CellResult(
                    spec=spec, key=key, metrics=record["metrics"],
                    seconds=float(record.get("seconds", 0.0)), cached=True)
                if progress:
                    progress.update(results[i])
            else:
                todo.append(i)

        if todo:
            if self.coordinate:
                self._run_coordinated(specs, todo, results, progress)
            elif self.workers == 1:
                self._run_sequential(specs, todo, results, progress)
            else:
                self._run_pool(specs, todo, results, progress)

        if progress:
            progress.finish()
        self.last_wall_seconds = time.perf_counter() - start
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _finish(self, results, progress, i, result: CellResult) -> None:
        results[i] = result
        if result.ok and not result.cached and self.cache is not None:
            self.cache.put(result.key, result.record())
        if progress:
            progress.update(result)

    def _run_sequential(self, specs, todo, results, progress) -> None:
        for i in todo:
            spec, key = specs[i], task_key(specs[i])
            attempt = 0
            while True:
                try:
                    payload = execute_task(spec, attempt,
                                           self.checkpoint_dir)
                except Exception as exc:
                    attempt += 1
                    if attempt > self.retries:
                        self._finish(results, progress, i, CellResult(
                            spec=spec, key=key,
                            error=_failure_record(exc, attempt),
                            attempts=attempt))
                        break
                else:
                    self._finish(results, progress, i, CellResult(
                        spec=spec, key=key, metrics=payload["metrics"],
                        seconds=payload["seconds"], attempts=attempt + 1))
                    break

    def _run_pool(self, specs, todo, results, progress) -> None:
        pool = _process_pool(self.workers)
        # future -> (spec index, attempt, owning pool).  The owning pool
        # matters on breakage: futures of an already-replaced pool still
        # surface BrokenProcessPool later, and must not tear down the
        # healthy replacement.
        pending: dict = {}
        try:
            for i in todo:
                pending[pool.submit(execute_task, specs[i], 0,
                                    self.checkpoint_dir)] = (i, 0, pool)
            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                suspects: list[tuple[int, int]] = []
                for future in done:
                    i, attempt, owner = pending.pop(future)
                    spec, key = specs[i], task_key(specs[i])
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # A worker died outright.  The pool cannot say
                        # which cell killed it, so every in-flight cell
                        # becomes a suspect and is re-run in isolation
                        # below — without being charged an attempt, so
                        # a crashing cell never exhausts the retry
                        # budget of innocent cells sharing its pool.
                        if owner is pool:
                            pool.shutdown(wait=False)
                            pool = _process_pool(self.workers)
                        suspects.append((i, attempt))
                    except Exception as exc:
                        attempt += 1
                        if attempt > self.retries:
                            self._finish(results, progress, i, CellResult(
                                spec=spec, key=key,
                                error=_failure_record(exc, attempt),
                                attempts=attempt))
                        else:
                            pending[pool.submit(execute_task, spec, attempt,
                                                self.checkpoint_dir)
                                    ] = (i, attempt, pool)
                    else:
                        self._finish(results, progress, i, CellResult(
                            spec=spec, key=key, metrics=payload["metrics"],
                            seconds=payload["seconds"], attempts=attempt + 1))
                for i, attempt in suspects:
                    self._finish(results, progress, i,
                                 self._run_isolated(specs[i], attempt))
        finally:
            pool.shutdown(wait=True)

    def _run_isolated(self, spec: TaskSpec, attempt: int) -> CellResult:
        """Re-run a pool-breakage suspect in its own single-worker pool.

        A cell that crashes its private pool is definitively the
        culprit: it is charged the attempt and retried (still isolated)
        until the retry budget runs out.  Innocent victims simply
        complete here and rejoin the results.
        """
        key = task_key(spec)
        while True:
            solo = _process_pool(1)
            try:
                payload = solo.submit(execute_task, spec, attempt,
                                      self.checkpoint_dir).result()
            except Exception as exc:
                attempt += 1
                if attempt > self.retries:
                    return CellResult(spec=spec, key=key,
                                      error=_failure_record(exc, attempt),
                                      attempts=attempt)
            else:
                return CellResult(spec=spec, key=key,
                                  metrics=payload["metrics"],
                                  seconds=payload["seconds"],
                                  attempts=attempt + 1)
            finally:
                solo.shutdown(wait=False)

    # ------------------------------------------------------------------
    def _run_coordinated(self, specs, todo, results, progress) -> None:
        """Drive the todo cells through the work-stealing coordinator.

        The leader owns the (shared) RunCache: every completion event
        funnels through :meth:`_finish`, so a coordinated sweep writes
        exactly the records a sequential one writes.  Local workers
        that die are respawned while work remains (bounded by a spawn
        budget so a cell that crashes every host it touches cannot
        respawn forever — the coordinator's re-queue cap quarantines it
        first).
        """
        from .coordinator import Coordinator
        from .gridworker import spawn_local_workers

        coordinator = Coordinator({i: specs[i] for i in todo},
                                  retries=self.retries,
                                  lease_ttl=self.lease_ttl)
        host, port = coordinator.start(
            None if self.coordinate is True else self.coordinate)
        self.coordinator = coordinator
        self.coordinator_address = (host, port)
        if progress:
            # ETA divisor = live lease holders across *all* hosts.
            progress.workers = \
                lambda: coordinator.active_workers() or self.workers or 1
        if self._emit:
            self._emit(f"coordinator listening on {host}:{port} "
                       f"({len(todo)} cell(s), {self.workers} local "
                       f"worker(s); join with: repro join {host}:{port})")
        connect = ("127.0.0.1" if host in ("0.0.0.0", "::") else host, port)
        procs = spawn_local_workers(connect, self.workers,
                                    self.checkpoint_dir)
        spawned = len(procs)
        spawn_budget = self.workers * (1 + coordinator.max_requeues)
        remaining = set(todo)
        try:
            while remaining:
                try:
                    event = coordinator.events.get(timeout=0.25)
                except queue_mod.Empty:
                    procs, spawned = self._maintain_local_workers(
                        coordinator, procs, spawned, spawn_budget, connect)
                    continue
                kind, index = event[0], event[1]
                spec, key = specs[index], task_key(specs[index])
                if kind == "complete":
                    payload, attempts = event[2], event[3]
                    self._finish(results, progress, index, CellResult(
                        spec=spec, key=key, metrics=payload["metrics"],
                        seconds=payload["seconds"], attempts=attempts))
                else:
                    error = event[2]
                    self._finish(results, progress, index, CellResult(
                        spec=spec, key=key, error=error,
                        attempts=int(error.get("attempts", 1))))
                remaining.discard(index)
        finally:
            coordinator.stop()
            self.coordinator = None
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)

    def _maintain_local_workers(self, coordinator, procs, spawned,
                                spawn_budget, connect):
        """Respawn dead local workers while cells remain outstanding."""
        from .gridworker import spawn_local_workers

        alive = [p for p in procs if p.is_alive()]
        dead = len(procs) - len(alive)
        if dead and coordinator.outstanding() > 0 and spawned < spawn_budget:
            replacements = spawn_local_workers(
                connect, min(dead, spawn_budget - spawned),
                self.checkpoint_dir)
            alive.extend(replacements)
            spawned += len(replacements)
            return alive, spawned
        if (self.workers and not alive and spawned >= spawn_budget
                and coordinator.active_workers() == 0):
            # Nobody left to execute: queued cells would wait forever.
            coordinator.fail_queued(
                f"local worker spawn budget ({spawn_budget}) exhausted "
                f"and no remote worker holds a lease")
        return (alive if dead else procs), spawned


def format_timing_summary(results: Sequence[CellResult],
                          wall_seconds: float | None = None) -> str:
    """Per-sweep timing report: totals, cache hits, slowest cells."""
    results = list(results)
    computed = [r for r in results if r.ok and not r.cached]
    cached = [r for r in results if r.cached]
    failed = [r for r in results if not r.ok]
    compute_seconds = sum(r.seconds for r in computed)
    lines = [f"{len(results)} cells: {len(computed)} computed, "
             f"{len(cached)} cached, {len(failed)} failed"]
    if wall_seconds is not None:
        lines.append(f"wall time {_hms(wall_seconds)}, compute time "
                     f"{_hms(compute_seconds)}"
                     + (f" ({compute_seconds / wall_seconds:.1f}x "
                        f"parallel efficiency)" if wall_seconds > 0 else ""))
    if computed:
        mean = compute_seconds / len(computed)
        lines.append(f"mean cell time {mean:.2f}s")
        slowest = sorted(computed, key=lambda r: -r.seconds)[:3]
        for r in slowest:
            lines.append(f"  slowest: {r.spec.describe()}  {r.seconds:.2f}s")
    for r in failed:
        lines.append(f"  failed: {r.spec.describe()}  "
                     f"{r.error['type']}: {r.error['message']}")
    return "\n".join(lines)
