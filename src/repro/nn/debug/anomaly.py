"""Autograd anomaly detection: find the op that created a NaN.

``with nn.detect_anomaly():`` installs a hook in :mod:`repro.nn.tensor`
that

* tags every graph node with its creating op and a trimmed Python
  traceback at creation time (``tensor._ctx``);
* checks every forward output for NaN/inf the moment it is produced;
* checks every parent gradient right after each backward closure runs.

On the first non-finite value an :class:`AnomalyError` is raised naming
the op, the phase (forward/backward), shapes, dtypes, the offending
value counts, input statistics, and the creation traceback — so a NaN
that would otherwise surface as a garbage loss three layers later is
pinned to the exact op call that produced it.

The fused LSTM kernel and every function in ``functional.py`` are
covered automatically: they all create nodes through ``Tensor._make``.

Overhead when disabled is a single ``is not None`` check per node (the
same deal as the profiler hook); enabled, every node pays an
``np.isfinite`` scan plus a traceback capture, so keep it for debugging
runs, not production sweeps.
"""

from __future__ import annotations

import contextlib
import threading
import traceback

import numpy as np

from .. import tensor as _tensor
from ..profiler import _op_name

__all__ = ["AnomalyError", "detect_anomaly", "is_anomaly_enabled"]

# Frames of creation-site traceback kept per node.  Deep model stacks
# (fused sequence kernels inside encoders inside trainers) rarely need
# more than this to locate the offending call.
_STACK_LIMIT = 10


class AnomalyError(RuntimeError):
    """A non-finite value appeared in the graph under ``detect_anomaly``.

    Attributes
    ----------
    op: name of the op whose output (forward) or whose parent gradient
        (backward) went non-finite, derived from the backward closure.
    phase: ``"forward"`` or ``"backward"``.
    where: formatted creation-site traceback of the offending node.
    """

    def __init__(self, message: str, *, op: str, phase: str, where: str):
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.where = where


class _NodeContext:
    """Provenance attached to every node created under anomaly mode."""

    __slots__ = ("op", "stack")

    def __init__(self, op: str, stack: list):
        self.op = op
        self.stack = stack

    def format_stack(self) -> str:
        # ``stack`` is a plain list of FrameSummary (slicing a
        # StackSummary loses the class), so format frame-by-frame.
        return "".join(traceback.format_list(self.stack))


def _array_stats(arr: np.ndarray) -> str:
    """Compact summary: shape, dtype, non-finite counts, finite range."""
    finite = np.isfinite(arr)
    n_nan = int(np.isnan(arr).sum())
    n_inf = int(np.isinf(arr).sum())
    if finite.any():
        vals = arr[finite]
        rng = f"finite range [{vals.min():.4g}, {vals.max():.4g}]"
    else:
        rng = "no finite values"
    return (f"shape={arr.shape} dtype={arr.dtype} "
            f"nan={n_nan} inf={n_inf} {rng}")


def _node_label(node) -> tuple[str, str]:
    """(op name, formatted creation traceback) for an offending node."""
    ctx = getattr(node, "_ctx", None)
    if ctx is not None:
        return ctx.op, ctx.format_stack()
    if node._backward is not None and node._backward is not _tensor._FREED_GRAPH:
        return _op_name(node._backward), "<node created outside anomaly mode>"
    name = getattr(node, "name", "") or "leaf"
    return name, "<leaf tensor>"


class _AnomalyDetector:
    """The hook object installed into repro.nn.tensor."""

    # Hook points called from repro.nn.tensor --------------------------
    def node_created(self, out, backward_fn, parents) -> None:
        op = _op_name(backward_fn) if backward_fn is not None else "leaf"
        # Skip the frames for this method, Tensor._make, and the op's
        # own body so the trace ends at the user-facing call site.
        stack = traceback.extract_stack(limit=_STACK_LIMIT + 3)[:-3]
        out._ctx = _NodeContext(op, stack)
        if not np.isfinite(out.data).all():
            where = out._ctx.format_stack()
            inputs = "\n".join(
                f"  input[{i}]: {_array_stats(p.data)}"
                for i, p in enumerate(parents))
            raise AnomalyError(
                f"anomaly detected in forward of {op!r}: non-finite "
                f"output ({_array_stats(out.data)})\n"
                f"{inputs or '  (no tensor inputs)'}\n"
                f"created at (most recent call last):\n{where}",
                op=op, phase="forward", where=where)

    def grads_computed(self, node) -> None:
        for i, parent in enumerate(node._prev):
            grad = parent.grad
            if grad is None or np.isfinite(grad).all():
                continue
            op, where = _node_label(node)
            raise AnomalyError(
                f"anomaly detected in backward of {op!r}: non-finite "
                f"gradient for input #{i} ({_array_stats(grad)})\n"
                f"  input #{i} data: {_array_stats(parent.data)}\n"
                f"  output grad: "
                f"{_array_stats(node.grad) if node.grad is not None else 'freed'}\n"
                f"forward node created at (most recent call last):\n{where}",
                op=op, phase="backward", where=where)


# ----------------------------------------------------------------------
# Installation — re-entrant and thread-safe, mirroring the profiler:
# the hook goes in when the first context activates and comes out when
# the last one exits.
# ----------------------------------------------------------------------
_INSTALL_LOCK = threading.Lock()
_DEPTH = 0
_DETECTOR = _AnomalyDetector()


def is_anomaly_enabled() -> bool:
    """Whether a ``detect_anomaly()`` context is currently active."""
    return _DEPTH > 0


@contextlib.contextmanager
def detect_anomaly():
    """Context manager enabling autograd anomaly detection.

    Usage::

        with nn.detect_anomaly():
            loss = model(x)
            loss.backward()   # AnomalyError pinpoints any NaN/inf
    """
    global _DEPTH
    with _INSTALL_LOCK:
        _DEPTH += 1
        if _DEPTH == 1:
            _tensor._set_anomaly_hook(_DETECTOR)
    try:
        yield
    finally:
        with _INSTALL_LOCK:
            _DEPTH -= 1
            if _DEPTH == 0:
                _tensor._set_anomaly_hook(None)
