"""The one BLAS thread policy: the forked-worker pin.

Both start paths are also covered where workers start: the spawn path
(``spawn_env``) in ``tests/serve/test_cluster.py``, which reads a
started worker's environment; the fork path in
``tests/parallel/test_executor.py`` and
``tests/parallel/test_coordinator.py``, which ask forked grid workers
for their thread count and compare their GEMMs with the parent's.
"""

import pytest

from repro import blas


@pytest.fixture
def setter_calls(monkeypatch):
    calls = []

    def spy(count):
        calls.append(count)
        return True

    monkeypatch.setattr(blas, "_set_threads", spy)
    return calls


def test_initializer_pins_one_thread_when_nothing_is_set(setter_calls):
    assert blas.pin_forked_worker({"PATH": "/x"}) is True
    assert setter_calls == [1]


@pytest.mark.parametrize("name", blas._BLAS_THREAD_VARS)
def test_initializer_is_a_noop_when_a_thread_variable_is_set(setter_calls,
                                                             name):
    assert blas.pin_forked_worker({name: "4"}) is False
    assert setter_calls == []


def test_no_openblas_means_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_loaded_openblas", lambda: [])
    assert blas.blas_threads() is None
    assert blas.pin_forked_worker({}) is False
