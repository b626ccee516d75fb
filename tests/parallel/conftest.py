"""Shared fixtures for the parallel-executor tests.

Cells use the cheapest real estimator (DeepLog, one epoch, tiny dims)
at scale 0.02 so success-path tests train an actual model in ~0.1s.
"""

import pytest

from repro.baselines import BaselineConfig
from repro.data import Word2VecConfig, clear_split_cache
from repro.parallel import TaskSpec


@pytest.fixture(scope="session")
def tiny_config():
    return BaselineConfig(embedding_dim=12, hidden_size=16, epochs=1,
                          batch_size=32,
                          word2vec=Word2VecConfig(dim=12, epochs=1))


@pytest.fixture
def make_spec(tiny_config):
    def build(seed=0, failpoint=None, eta=0.2, dataset="cert"):
        return TaskSpec(model="DeepLog", estimator="DeepLog",
                        config=tiny_config, dataset=dataset,
                        noise_kind="uniform", noise_params=(eta,),
                        seed=seed, scale=0.02, failpoint=failpoint)
    return build


@pytest.fixture(autouse=True)
def fresh_split_cache():
    clear_split_cache()
    yield
    clear_split_cache()


@pytest.fixture
def two_blas_threads(monkeypatch):
    """A parent running two BLAS threads and no operator thread variable.

    Forcing two threads makes a grid worker's one thread a real change
    on any host, including a one-CPU one.
    """
    from repro.blas import _BLAS_THREAD_VARS, _set_threads, blas_threads

    for name in _BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = blas_threads()
    assert before is not None, "no OpenBLAS loaded in the test process"
    _set_threads(2)
    assert blas_threads() == 2
    yield
    _set_threads(before)
