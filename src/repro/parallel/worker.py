"""Per-process execution of one grid cell.

:func:`execute_task` is the function every grid worker runs: it
rebuilds the cell from its :class:`~repro.parallel.tasks.TaskSpec` alone
(estimator from the registry, split from the per-process memoized
:func:`~repro.data.split_cache.cached_splits`, noise from the spec's
serialised parameters) and returns a plain ``dict`` payload that travels
cheaply back to the coordinator.

Determinism: the split generator, the noise draw and the training rng
all derive from ``spec.seed`` alone, so a cell computes bit-identical
metrics whether it runs in-process, in a grid worker, or on a different
day from the run cache.
"""

from __future__ import annotations

import os
import time

from ..metrics import evaluate_detector, true_rates
from ..train import TrainRun, seed_everything
from .tasks import TaskSpec, task_key

__all__ = ["execute_task", "build_estimator"]


def build_estimator(spec: TaskSpec):
    """Instantiate the spec's estimator from its carried config."""
    if spec.estimator == "clfd":
        from ..core import CLFD

        return CLFD(spec.config)
    from ..baselines import BASELINES

    try:
        cls = BASELINES[spec.estimator]
    except KeyError:
        raise KeyError(f"unknown estimator {spec.estimator!r}; choose "
                       f"'clfd' or one of {sorted(BASELINES)}") from None
    return cls(spec.config)


def _hit_failpoint(spec: TaskSpec, attempt: int) -> None:
    """Honour the spec's fault-injection hook (tests only)."""
    point = spec.failpoint
    if not point:
        return
    if point == "raise":
        raise RuntimeError(f"injected failure for {spec.describe()}")
    if point.startswith("flaky:"):
        if attempt < int(point.split(":", 1)[1]):
            raise RuntimeError(
                f"injected flaky failure (attempt {attempt}) "
                f"for {spec.describe()}")
        return
    if point == "crash":  # pragma: no cover - kills the process
        os._exit(13)
    if point.startswith("stop_after:"):
        return  # handled in execute_task (needs the cell's TrainRun)
    raise ValueError(f"unknown failpoint {point!r}")


def _cell_run(spec: TaskSpec, attempt: int,
              checkpoint_dir: str | None) -> TrainRun | None:
    """Build the cell's resumable TrainRun (None without a directory).

    Every attempt opens the same per-cell directory with ``resume=True``:
    an empty directory is a fresh run, and a retry after a mid-training
    crash resumes from the last phase/epoch checkpoint instead of
    restarting from epoch 0.  The ``stop_after:<tag>:<N>`` failpoint
    interrupts attempts below ``N`` right after ``<tag>`` checkpoints —
    the fault-injection hook the resume tests drive.
    """
    if checkpoint_dir is None:
        return None
    cell_dir = os.path.join(checkpoint_dir, task_key(spec))
    run = TrainRun(cell_dir, journal=os.path.join(cell_dir, "journal.jsonl"),
                   resume=True)
    point = spec.failpoint or ""
    if point.startswith("stop_after:"):
        _, tag, threshold = point.split(":", 2)
        if attempt < int(threshold):
            run.stop_after = tag
    return run


def execute_task(spec: TaskSpec, attempt: int = 0,
                 checkpoint_dir: str | None = None) -> dict:
    """Run one cell; returns ``{"metrics": ..., "seconds": ...}``.

    Raises whatever the underlying training raises — fault isolation
    (retry, structured failure records) is the executor's job.  With a
    ``checkpoint_dir``, training state snapshots under
    ``<checkpoint_dir>/<task_key>/`` and a retried cell resumes from its
    last checkpoint.
    """
    _hit_failpoint(spec, attempt)
    from ..data.split_cache import cached_splits

    start = time.perf_counter()
    train, test, rng = cached_splits(spec.dataset, spec.seed, spec.scale)
    spec.apply_noise(train, rng)
    model = build_estimator(spec)
    run = _cell_run(spec, attempt, checkpoint_dir)
    model.fit(train, rng=seed_everything(spec.seed), run=run)
    if run is not None:
        # Success: the checkpoints served their purpose.  Drop them (the
        # run cache owns the metrics) but keep the journal for tailing.
        run.checkpoints.clear()
    if spec.measure == "correction_rates":
        tpr, tnr = true_rates(train.labels(), model.corrected_labels)
        metrics = {"tpr": float(tpr), "tnr": float(tnr)}
    else:
        labels, scores = model.predict(test)
        metrics = {k: float(v)
                   for k, v in evaluate_detector(test.labels(), labels,
                                                 scores).items()}
    return {"metrics": metrics, "seconds": time.perf_counter() - start}
