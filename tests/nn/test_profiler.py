"""Thread-safety and re-entrancy of the profiler hook installation.

Regression tests: the old ``profile()`` unconditionally cleared the
tensor hook on exit, so an inner context exiting silently disabled the
outer profiler, and two threads' contexts could strand or drop each
other's hooks.
"""

import threading

import numpy as np

from repro import nn
from repro.nn import tensor as _tensor


def _one_backward():
    x = nn.Tensor(np.ones((3, 3)), requires_grad=True)
    (x * 2.0).sum().backward()


def test_nested_profile_outer_keeps_recording():
    with nn.profile() as outer:
        with nn.profile() as inner:
            _one_backward()
        inner_nodes = inner.total_nodes
        assert inner_nodes > 0
        # The inner exit must not disable the outer profiler.
        _one_backward()
    assert outer.total_nodes > inner_nodes
    assert _tensor._PROFILE_HOOK is None


def test_nested_profilers_both_see_events():
    with nn.profile() as outer:
        with nn.profile() as inner:
            _one_backward()
    assert outer.total_nodes == inner.total_nodes > 0
    assert outer.total_backward_seconds > 0
    assert inner.total_backward_seconds > 0


def test_concurrent_profilers_from_threads():
    started = threading.Barrier(2)
    profilers = {}
    errors = []

    def worker(name):
        try:
            with nn.profile() as prof:
                started.wait(timeout=5)
                for _ in range(5):
                    _one_backward()
                profilers[name] = prof
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors
    # Both profilers recorded (each sees its own and the other thread's
    # events while both are live), and the hook is fully uninstalled.
    for prof in profilers.values():
        assert prof.total_nodes > 0
        assert prof.total_backward_seconds > 0
    assert _tensor._PROFILE_HOOK is None


def test_exception_inside_context_still_uninstalls():
    try:
        with nn.profile():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _tensor._PROFILE_HOOK is None


def _stats_view(prof):
    return {name: (s.nodes, s.backward_calls, s.backward_seconds)
            for name, s in prof.ops.items()}


def test_nested_profilers_agree_exactly_on_fused_kernels():
    """Nested profilers must attribute each backward exactly once, to
    the same op name, with the same seconds — a fused-kernel node must
    never land under the fused name in one profiler and a wrapper name
    in the other, which would inflate ``total_backward_seconds``."""
    lstm = nn.LSTM(8, 8, np.random.default_rng(0), fused=True)
    x = nn.Tensor(np.random.default_rng(1).normal(size=(4, 6, 8)),
                  requires_grad=True)
    with nn.profile() as outer:
        with nn.profile() as inner:
            lstm(x)[0].sum().backward()
    assert _stats_view(inner) == _stats_view(outer)
    assert inner.total_backward_seconds == outer.total_backward_seconds
    # Each fused node's backward is one call under the fused op name.
    assert inner.ops["fused_lstm_sequence"].backward_calls > 0
