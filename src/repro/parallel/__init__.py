"""Parallel experiment execution: grid coordinator + run cache + progress.

The experiment grid (model x dataset x noise x seed) is embarrassingly
parallel once each cell is self-describing; this package turns every
cell into a :class:`TaskSpec`, executes grids through
:class:`GridExecutor` (``workers=1`` is the sequential degenerate case)
and memoizes finished cells in an on-disk :class:`RunCache` so sweeps
resume after interruption.  See DESIGN.md §9 for the cache-key format,
determinism guarantees, and failure semantics.
"""

from .cache import DEFAULT_CACHE_DIR, RunCache
from .coordinator import (
    DEFAULT_LEASE_TTL,
    Coordinator,
    CoordinatorClient,
    parse_address,
)
from .executor import (
    CellResult,
    GridExecutor,
    SweepError,
    format_timing_summary,
)
from .gridworker import run_worker, spawn_local_workers
from .tasks import CACHE_FORMAT, TaskSpec, task_key
from .worker import build_estimator, execute_task

__all__ = [
    "TaskSpec", "task_key", "CACHE_FORMAT",
    "RunCache", "DEFAULT_CACHE_DIR",
    "GridExecutor", "CellResult", "SweepError", "format_timing_summary",
    "Coordinator", "CoordinatorClient", "parse_address",
    "DEFAULT_LEASE_TTL", "run_worker", "spawn_local_workers",
    "execute_task", "build_estimator",
]
