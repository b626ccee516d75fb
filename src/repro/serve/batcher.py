"""Request micro-batching: coalesce single scores into padded batches.

The fused-LSTM forward (DESIGN.md §7) is dominated by per-timestep GEMM
calls whose cost grows sub-linearly in batch size, so scoring 32
sessions in one forward costs a small multiple of scoring one.  The
:class:`MicroBatcher` exploits that: callers submit one item at a time
and block on a future; a single worker thread drains the queue into
batches of up to ``max_batch`` items.  By default it does not wait for
company: a batch is whatever is queued when the worker frees up, so a
lone request is dispatched at once and requests that arrive during a
forward share the next one.  ``max_wait_ms`` opts into a coalescing
window after the first item.

Backpressure is a bounded queue: when ``max_queue`` submissions are
already waiting, :meth:`submit` fails fast with :class:`QueueFullError`
instead of letting latency (and memory) grow without bound — the HTTP
layer maps that to ``429 Too Many Requests``.
"""

from __future__ import annotations

import collections
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Iterable, Sequence

__all__ = ["QueueFullError", "MicroBatcher", "submit_windowed"]


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` when the queue is at capacity."""


def submit_windowed(submit: Callable[[Any], Future], items: Iterable[Any],
                    limit: int, timeout: float | None) -> list:
    """Submit ``items`` in order with at most ``limit`` futures in flight.

    The ``score_many`` loop of every engine: enqueueing ahead lets
    items share micro-batches, while waiting on the oldest future once
    ``limit`` are pending keeps one call from overrunning a queue of
    that capacity by itself.  Returns the results in submission order.
    """
    results: list = []
    pending: collections.deque[Future] = collections.deque()
    for item in items:
        if len(pending) >= limit:
            results.append(pending.popleft().result(timeout=timeout))
        pending.append(submit(item))
    results.extend(future.result(timeout=timeout) for future in pending)
    return results


class MicroBatcher:
    """Coalesces submitted items into batches for a processing callback.

    Parameters
    ----------
    process: called from the worker thread with a list of items; must
        return one result per item, in order.  An exception fails every
        future of that batch (and only that batch — the worker
        survives).
    max_batch: largest batch handed to ``process``.
    max_wait_ms: how long the worker waits for co-batchable items after
        the first one arrives.  ``0`` (the default) waits for none: the
        batch is what is already queued, which is a single item only
        when nothing else arrived during the previous forward.
    max_queue: bound on not-yet-batched submissions (backpressure).
    on_batch: optional observer ``(batch_size, process_seconds)`` —
        the metrics hook.
    """

    def __init__(self, process: Callable[[list], Sequence],
                 max_batch: int = 32, max_wait_ms: float = 0.0,
                 max_queue: int = 1024,
                 on_batch: Callable[[int, float], None] | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._process = process
        self.max_batch = max_batch
        self.max_wait_s = max_wait_ms / 1000.0
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._on_batch = on_batch
        self._closed = False
        # Serialises submit against close: without it a submit that
        # passes the _closed check while close() runs can enqueue after
        # the shutdown sentinel — the worker is already gone and the
        # drain may have finished, so that future never resolves.
        self._lock = threading.Lock()
        self._worker = threading.Thread(target=self._run,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Submissions waiting to be batched (approximate, lock-free)."""
        return self._queue.qsize()

    def submit(self, item: Any) -> "Future":
        """Enqueue one item; returns the future of its result.

        Raises ``RuntimeError`` once :meth:`close` has begun — the
        check-and-enqueue is atomic with respect to close, so a
        submission either lands before the shutdown sentinel (and is
        drained/failed by close) or is rejected here; it can never
        enqueue behind the sentinel and hang forever.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            future: Future = Future()
            try:
                self._queue.put_nowait((item, future))
            except queue.Full:
                raise QueueFullError(
                    f"micro-batch queue is at capacity "
                    f"({self._queue.maxsize} pending)"
                ) from None
        return future

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker; pending submissions fail with RuntimeError."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put((None, None))  # wake the worker
        self._worker.join(timeout=timeout)
        while True:
            try:
                _, future = self._queue.get_nowait()
            except queue.Empty:
                break
            if future is not None and not future.done():
                future.set_exception(RuntimeError("batcher closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _collect(self) -> list[tuple[Any, Future]]:
        """Block for the first item, then coalesce until size/deadline."""
        first = self._queue.get()
        batch = [first]
        if first[1] is None:  # shutdown sentinel
            return batch
        deadline = time.perf_counter() + self.max_wait_s
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            batch.append(item)
            if item[1] is None:
                break
        return batch

    def _run(self) -> None:
        while True:
            pairs = self._collect()
            if pairs and pairs[-1][1] is None:  # sentinel terminates
                pairs = pairs[:-1]
                self._dispatch(pairs)
                return
            self._dispatch(pairs)

    def _dispatch(self, pairs: list[tuple[Any, Future]]) -> None:
        # Skip futures whose caller already gave up (e.g. HTTP timeout).
        live = [(item, fut) for item, fut in pairs
                if fut.set_running_or_notify_cancel()]
        if not live:
            return
        items = [item for item, _ in live]
        start = time.perf_counter()
        try:
            results = self._process(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"process returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - forwarded to futures
            for _, fut in live:
                fut.set_exception(exc)
            return
        elapsed = time.perf_counter() - start
        if self._on_batch is not None:
            self._on_batch(len(items), elapsed)
        for (_, fut), result in zip(live, results):
            fut.set_result(result)
