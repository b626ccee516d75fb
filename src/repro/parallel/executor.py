"""Fault-isolating grid executor: one coordinator + run cache + progress.

:class:`GridExecutor` runs a list of :class:`~repro.parallel.tasks.TaskSpec`
cells and returns one :class:`CellResult` per spec, in input order.

* ``workers=1`` (the default, and what the test suite uses) executes
  in-process: the sequential reference.
* ``workers>1`` runs the sweep through the work-stealing tier: a
  :class:`~repro.parallel.coordinator.Coordinator` leader hands out
  content keys over TCP on an ephemeral ``127.0.0.1`` port, and
  ``workers`` forked local workers (one BLAS thread each, see
  :mod:`repro.blas`) lease them.  ``coordinate="host:port"`` picks the
  listen address instead, so workers on any other host can steal cells
  with ``repro join host:port`` (``workers=0`` serves remote workers
  only).  Results are bit-identical to sequential execution because
  every cell derives all randomness from its own spec (see
  :mod:`repro.parallel.worker`).
* A :class:`~repro.parallel.cache.RunCache` (optional) is consulted
  before any work is scheduled and updated after every success, so
  interrupted sweeps resume and repeated invocations skip straight
  through, on one host or many.
* Failures never kill the sweep: a raising cell is retried up to
  ``retries`` extra times, then recorded as a structured failure
  (type/message/traceback/attempts) in its result slot.  A local worker
  that dies outright (segfault, ``os._exit``) has its lease expired at
  once and is replaced: the cell it held re-queues uncharged, and a cell
  that keeps killing its workers is quarantined as a ``LeaseExpired``
  failure, while cells on the other workers complete unharmed.
"""

from __future__ import annotations

import dataclasses
import queue as queue_mod
import time
import traceback
from typing import Callable, Sequence

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

    ``workers`` may be an ``int`` (a fixed worker count) or a
    zero-argument callable returning the *live* worker count — under
    multi-host execution the divisor is the coordinator's current
    lease-holder count, not the local worker count, or the ETA is off by
    the number of remote hosts.
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
                 coordinate: str | None = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL):
        if workers < (0 if coordinate else 1):
            raise ValueError("workers must be >= 1 (>= 0 when coordinating "
                             "— a leader may serve remote workers only)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if coordinate is not None and not isinstance(coordinate, str):
            raise TypeError("coordinate is a listen address ('host:port'); "
                            "workers > 1 already runs a local coordinator")
        self.workers = workers
        self.cache = RunCache(cache) if isinstance(cache, str) else cache
        self.retries = retries
        # Per-cell resumable checkpoints (repro.train): a retried cell
        # resumes from its last phase/epoch snapshot under
        # <checkpoint_dir>/<task_key>/ instead of restarting at epoch 0.
        self.checkpoint_dir = checkpoint_dir
        # The leader's listen address ("host:port" or ":port"; None is
        # an ephemeral 127.0.0.1 port).  Remote hosts join with
        # `repro join host:port`.
        self.coordinate = coordinate
        self.lease_ttl = lease_ttl
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
            if self.workers == 1 and self.coordinate is None:
                self._run_sequential(specs, todo, results, progress)
            else:
                self._run_coordinated(specs, todo, results, progress)

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

    # ------------------------------------------------------------------
    def _run_coordinated(self, specs, todo, results, progress) -> None:
        """Drive the todo cells through the work-stealing coordinator.

        The leader owns the (shared) RunCache: every completion event
        funnels through :meth:`_finish`, so a coordinated sweep writes
        exactly the records a sequential one writes.  Local workers
        that die are replaced while work remains, within a spawn budget
        that lets every cell kill its workers until quarantined but
        stops a worker that dies between cells from respawning forever.
        """
        from .coordinator import Coordinator
        from .gridworker import spawn_local_workers

        coordinator = Coordinator({i: specs[i] for i in todo},
                                  retries=self.retries,
                                  lease_ttl=self.lease_ttl)
        host, port = coordinator.bind(self.coordinate)
        connect = ("127.0.0.1" if host in ("0.0.0.0", "::") else host, port)
        spawn_budget = (self.workers
                        + len(todo) * (coordinator.max_requeues + 1))
        procs: list = []
        remaining = set(todo)
        try:
            # Fork the first workers before the leader's threads start: a
            # child forked beside a running thread can inherit a lock
            # that thread held.
            procs = spawn_local_workers(connect, self.workers,
                                        self.checkpoint_dir,
                                        listener=coordinator.listener)
            spawned = len(procs)
            coordinator.serve()
            if progress:
                # ETA divisor = live lease holders across *all* hosts.
                progress.workers = \
                    lambda: coordinator.active_workers() or self.workers or 1
            if self._emit:
                self._emit(f"coordinator listening on {host}:{port} "
                           f"({len(todo)} cell(s), {self.workers} local "
                           f"worker(s); join with: repro join {host}:{port})")
            while remaining:
                try:
                    event = coordinator.events.get(timeout=0.25)
                except queue_mod.Empty:
                    event = None
                procs, spawned = self._maintain_local_workers(
                    coordinator, procs, spawned, spawn_budget, connect)
                if event is None:
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
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join(timeout=5.0)

    def _maintain_local_workers(self, coordinator, procs, spawned,
                                spawn_budget, connect):
        """Expire dead local workers' leases and replace the workers.

        A dead worker's cell takes the lease-expiry path at once instead
        of after ``lease_ttl``: a crashing cell is quarantined within a
        few polls, and no other cell is charged for the crash.
        """
        from .gridworker import spawn_local_workers

        alive = [p for p in procs if p.is_alive()]
        dead = [p for p in procs if p not in alive]
        for proc in dead:
            coordinator.expire_worker(proc.name)
        if dead and coordinator.outstanding() > 0 and spawned < spawn_budget:
            replacements = spawn_local_workers(
                connect, min(len(dead), spawn_budget - spawned),
                self.checkpoint_dir, first=spawned,
                listener=coordinator.listener)
            alive += replacements
            spawned += len(replacements)
        elif (self.workers and not alive and spawned >= spawn_budget
                and coordinator.active_workers() == 0):
            # Nobody left to execute: queued cells would wait forever.
            coordinator.fail_queued(
                f"local worker spawn budget ({spawn_budget}) exhausted "
                f"and no remote worker holds a lease")
        return alive, spawned


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
