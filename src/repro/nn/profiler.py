"""Op-level profiling for the autograd engine.

Activating :func:`profile` registers a hook with :mod:`repro.nn.tensor`
that counts every graph node created and times every backward closure,
keyed by the op that built it.  Forward-side regions (a whole layer, an
epoch) can be timed with :meth:`Profiler.timer`.  The hooks cost a
single ``is not None`` check per node when disabled, so they are safe to
leave in the hot path.

Activation is thread-safe and re-entrant: any number of ``profile()``
contexts may be live at once — nested in one thread, or concurrently
from several (e.g. the serving layer profiling a request while a
benchmark profiles an epoch).  Every live profiler sees every event;
the tensor-side hook is installed when the first activates and removed
when the last exits, in whichever order the contexts close.

Usage::

    with profile() as prof:
        loss = model(x).sum()
        loss.backward()
    print(prof.summary())
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

from . import tensor as _tensor

__all__ = ["OpStats", "Profiler", "profile"]


def _op_name(backward_fn) -> str:
    """Derive the op name from its backward closure's qualname.

    ``Tensor.__add__.<locals>.backward`` -> ``__add__``;
    ``fused_lstm_sequence.<locals>.backward_seq`` -> ``fused_lstm_sequence``.
    """
    qualname = getattr(backward_fn, "__qualname__", "?")
    return qualname.split(".<locals>")[0].rsplit(".", 1)[-1]


@dataclass
class OpStats:
    """Aggregate counters for one op."""

    nodes: int = 0
    backward_calls: int = 0
    backward_seconds: float = 0.0


@dataclass
class Profiler:
    """Collects node counts and per-op backward wall time."""

    ops: dict[str, OpStats] = field(default_factory=dict)
    regions: dict[str, float] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def _stats(self, backward_fn) -> OpStats:
        name = _op_name(backward_fn)
        stats = self.ops.get(name)
        if stats is None:
            stats = self.ops[name] = OpStats()
        return stats

    # Hook points called from repro.nn.tensor -------------------------
    def record_node(self, backward_fn) -> None:
        with self._lock:
            self._stats(backward_fn).nodes += 1

    def record_backward(self, backward_fn, seconds: float) -> None:
        with self._lock:
            stats = self._stats(backward_fn)
            stats.backward_calls += 1
            stats.backward_seconds += seconds

    # Aggregates ------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        return sum(s.nodes for s in self.ops.values())

    @property
    def total_backward_seconds(self) -> float:
        return sum(s.backward_seconds for s in self.ops.values())

    @contextlib.contextmanager
    def timer(self, name: str):
        """Accumulate wall time of a forward-side region under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.regions[name] = self.regions.get(name, 0.0) + elapsed

    def summary(self, top: int = 15) -> str:
        """Human-readable table sorted by backward time."""
        lines = [f"{'op':24s} {'nodes':>8s} {'bwd calls':>10s} {'bwd ms':>10s}"]
        ranked = sorted(self.ops.items(),
                        key=lambda kv: -kv[1].backward_seconds)
        for name, stats in ranked[:top]:
            lines.append(f"{name:24s} {stats.nodes:8d} "
                         f"{stats.backward_calls:10d} "
                         f"{stats.backward_seconds * 1e3:10.2f}")
        lines.append(f"{'total':24s} {self.total_nodes:8d} "
                     f"{sum(s.backward_calls for s in self.ops.values()):10d} "
                     f"{self.total_backward_seconds * 1e3:10.2f}")
        for name, seconds in self.regions.items():
            lines.append(f"region {name}: {seconds * 1e3:.2f} ms")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Hook installation
# ----------------------------------------------------------------------
# Multiple profilers can be live simultaneously (nested contexts in one
# thread, or concurrent contexts across threads).  A single dispatcher
# is installed as the tensor-side hook while at least one is active and
# fans every event out to all of them; ``_INSTALL_LOCK`` serialises the
# activate/deactivate transitions so racing contexts can never strand a
# hook (or drop one another's).
_INSTALL_LOCK = threading.Lock()
_ACTIVE: tuple[Profiler, ...] = ()


class _Dispatcher:
    """Fans tensor-hook events out to every active profiler."""

    def record_node(self, backward_fn) -> None:
        for prof in _ACTIVE:
            prof.record_node(backward_fn)

    def record_backward(self, backward_fn, seconds: float) -> None:
        for prof in _ACTIVE:
            prof.record_backward(backward_fn, seconds)


_DISPATCHER = _Dispatcher()


def _activate(prof: Profiler) -> None:
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = _ACTIVE + (prof,)
        if len(_ACTIVE) == 1:
            _tensor._set_profile_hook(_DISPATCHER)


def _deactivate(prof: Profiler) -> None:
    global _ACTIVE
    with _INSTALL_LOCK:
        _ACTIVE = tuple(p for p in _ACTIVE if p is not prof)
        if not _ACTIVE:
            _tensor._set_profile_hook(None)


@contextlib.contextmanager
def profile():
    """Context manager: activate profiling, yield the :class:`Profiler`.

    Safe to nest and safe to run concurrently from multiple threads:
    every live profiler records every event, and the tensor hook stays
    installed until the last context exits.
    """
    prof = Profiler()
    _activate(prof)
    try:
        yield prof
    finally:
        _deactivate(prof)
