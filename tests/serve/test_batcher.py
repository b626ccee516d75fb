"""MicroBatcher behaviour: coalescing, ordering, errors, backpressure."""

import threading
import time

import pytest

from repro.cli import build_parser
from repro.serve import MicroBatcher, QueueFullError, ServeConfig


def test_results_map_back_to_items():
    with MicroBatcher(lambda items: [x * 2 for x in items],
                      max_batch=4, max_wait_ms=5) as batcher:
        futures = [batcher.submit(i) for i in range(10)]
        assert [f.result(timeout=5) for f in futures] == [i * 2
                                                          for i in range(10)]


def test_concurrent_submissions_coalesce():
    batch_sizes = []
    release = threading.Event()

    def process(items):
        release.wait(timeout=5)  # hold the first batch so others pile up
        batch_sizes.append(len(items))
        return items

    with MicroBatcher(process, max_batch=8, max_wait_ms=50) as batcher:
        first = batcher.submit(0)
        futures = [batcher.submit(i) for i in range(1, 8)]
        release.set()
        first.result(timeout=5)
        for f in futures:
            f.result(timeout=5)
    # The 7 queued-while-busy items must have shared batches: strictly
    # fewer batches than items overall.
    assert sum(batch_sizes) == 8
    assert len(batch_sizes) < 8
    assert max(batch_sizes) > 1


def test_no_surface_waits_for_company_by_default():
    assert ServeConfig().max_wait_ms == 0
    args = build_parser().parse_args(["serve", "--model", "m.npz"])
    assert args.max_wait_ms == 0
    with MicroBatcher(lambda items: items) as batcher:
        assert batcher.max_wait_s == 0


def test_default_dispatches_a_lone_submit_alone_and_at_once():
    batches = []

    def process(items):
        batches.append(list(items))
        return items

    with MicroBatcher(process) as batcher:
        assert batcher.submit("lone").result(timeout=5) == "lone"
    assert batches == [["lone"]]


def test_default_batches_what_arrived_during_a_forward():
    """No window and no sleeps: the first forward blocks until the test
    releases it, and everything submitted meanwhile is the next batch."""
    batches = []
    entered, release = threading.Event(), threading.Event()

    def process(items):
        batches.append(list(items))
        entered.set()
        assert release.wait(timeout=5)
        return items

    with MicroBatcher(process) as batcher:
        first = batcher.submit("a")
        assert entered.wait(timeout=5)
        queued = [batcher.submit(item) for item in "bcd"]
        release.set()
        assert [f.result(timeout=5) for f in [first, *queued]] == list("abcd")
    assert batches == [["a"], ["b", "c", "d"]]


def test_max_batch_is_respected():
    batch_sizes = []

    def process(items):
        batch_sizes.append(len(items))
        time.sleep(0.01)
        return items

    with MicroBatcher(process, max_batch=3, max_wait_ms=100) as batcher:
        futures = [batcher.submit(i) for i in range(9)]
        for f in futures:
            f.result(timeout=5)
    assert max(batch_sizes) <= 3


def test_process_failure_fails_batch_but_not_worker():
    calls = []

    def process(items):
        calls.append(list(items))
        if items[0] == "boom":
            raise ValueError("bad batch")
        return items

    with MicroBatcher(process, max_batch=1, max_wait_ms=0) as batcher:
        bad = batcher.submit("boom")
        with pytest.raises(ValueError):
            bad.result(timeout=5)
        # The worker must survive and keep scoring.
        assert batcher.submit("fine").result(timeout=5) == "fine"


def test_wrong_result_count_is_an_error():
    with MicroBatcher(lambda items: [1, 2, 3], max_batch=1,
                      max_wait_ms=0) as batcher:
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit("x").result(timeout=5)


def test_backpressure_raises_queue_full():
    stall = threading.Event()

    def process(items):
        stall.wait(timeout=10)
        return items

    batcher = MicroBatcher(process, max_batch=1, max_wait_ms=0, max_queue=2)
    try:
        first = batcher.submit("in-flight")
        time.sleep(0.05)  # let the worker pick it up and stall
        batcher.submit("queued-1")
        batcher.submit("queued-2")
        with pytest.raises(QueueFullError):
            batcher.submit("overflow")
    finally:
        stall.set()
        first.result(timeout=5)
        batcher.close()


def test_close_rejects_new_work_and_drains():
    batcher = MicroBatcher(lambda items: items, max_batch=4, max_wait_ms=1)
    assert batcher.submit("a").result(timeout=5) == "a"
    batcher.close()
    with pytest.raises(RuntimeError):
        batcher.submit("late")
    batcher.close()  # idempotent


def test_submit_close_race_never_strands_a_future():
    """Regression: a submit racing close() could pass the _closed check,
    enqueue behind the shutdown sentinel, and hang forever — its future
    neither resolved by the worker (already gone) nor failed by close's
    drain (already finished).  With submit/close mutually exclusive,
    every submission either completes, fails with the close error, or
    is rejected with RuntimeError at the call site — within a bounded
    wait."""
    for _ in range(20):  # the race needs several attempts to interleave
        batcher = MicroBatcher(lambda items: items, max_batch=4,
                               max_wait_ms=0.1)
        start = threading.Barrier(2)
        outcomes = []

        def submitter():
            start.wait(timeout=5)
            for i in range(50):
                try:
                    future = batcher.submit(i)
                except RuntimeError:  # closed (or QueueFullError)
                    outcomes.append("rejected")
                    return
                try:
                    future.result(timeout=5)
                    outcomes.append("done")
                except RuntimeError:
                    outcomes.append("failed-by-close")

        thread = threading.Thread(target=submitter)
        thread.start()
        start.wait(timeout=5)
        batcher.close()
        thread.join(timeout=10)
        # A stranded future shows up as a hung submitter thread.
        assert not thread.is_alive(), "a submission hung after close()"
        assert outcomes, "submitter made no progress"
