"""In-memory spans recorded around calls into the system's layers.

The benchmark measures each layer from outside: :meth:`Tracer.wrap`
replaces a function or method with one that records a span per call,
and :meth:`Tracer.unwrap_all` puts the originals back.  A span is
``(id, name, parent, trace, start, end)``; the parent is the span open
on the same thread when the call began, and the trace id groups the
spans of one session, window or cell.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may overlap, so covered time
is the length of the union of their intervals, not their sum).
Spans stay in memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Iterable

__all__ = ["Span", "Tracer", "self_times", "summarize", "read_jsonl"]


class Span:
    __slots__ = ("id", "name", "parent", "trace", "start", "end")

    def __init__(self, id: int, name: str, parent: int | None, trace,
                 start: float, end: float = 0.0):
        self.id = id
        self.name = name
        self.parent = parent
        self.trace = trace
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trace": self.trace, "start": self.start, "end": self.end}


class Tracer:
    """Thread-aware span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None and parent is not None:
            trace = parent.trace
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None, trace,
                    time.perf_counter())
        stack.append(span)
        return span

    def open_spans(self) -> list[Span]:
        """The spans open on the calling thread, outermost first."""
        return list(self._stack())

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def record(self, name: str, start: float, end: float, trace=None) -> None:
        """Add a finished span measured elsewhere (e.g. across threads)."""
        self.spans.append(Span(next(self._ids), name, None, trace, start, end))

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str | Callable[[tuple], str],
             trace: Callable[[tuple], object] | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a class or module.  ``name`` is the span name, or a
        function of the call's positional arguments giving it;
        ``trace(args)`` may likewise name the call's trace id.  Class
        and static methods keep their kind.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod,
                                                   staticmethod)) else None
        func = static.__func__ if kind else static
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args),
                               trace(args) if trace else None)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(span)

        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patched.append((owner, attr, static))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")


def read_jsonl(path) -> list[Span]:
    spans = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            spans.append(Span(d["id"], d["name"], d["parent"], d["trace"],
                              d["start"], d["end"]))
    return spans


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = \
        collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - _covered(children.get(span.id, []),
                                              span.start, span.end)
            for span in spans}


def summarize(spans: Iterable[Span]) -> dict[str, dict]:
    """Per span name: call count, total duration and total self time."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"n": 0, "total": 0.0, "self": 0.0})
        entry["n"] += 1
        entry["total"] += span.duration
        entry["self"] += own[span.id]
    return out
