"""ServeConfig: validation, derived views, and the one way to pass it."""

import pytest

from repro.serve import (ClusterEngine, InferenceEngine, ServeConfig,
                         ServingServer, run_server)


def test_defaults_are_valid():
    config = ServeConfig()
    assert config.max_batch == 32
    assert config.workers == 1
    assert config.rate_limit_rps is None


@pytest.mark.parametrize("kwargs", [
    {"max_batch": 0},
    {"max_wait_ms": -1.0},
    {"max_queue": 0},
    {"workers": 0},
    {"port": 70000},
    {"port": -1},
    {"rate_limit_rps": 0.0},
    {"rate_limit_burst": -2.0},
    {"drain_timeout_s": 0.0},
    {"score_timeout_s": -1.0},
    {"precision": "int4"},
    {"precision": "bfloat16"},
])
def test_invalid_values_raise(kwargs):
    with pytest.raises(ValueError):
        ServeConfig(**kwargs)


def test_precision_accepts_supported_values():
    assert ServeConfig().precision is None  # serve archive as persisted
    for value in ("float32", "float16", "int8"):
        assert ServeConfig(precision=value).precision == value
    # Batching workers inherit the cluster's precision unchanged.
    assert ServeConfig(workers=2, precision="int8").worker_config() \
        .precision == "int8"


def test_config_is_frozen():
    with pytest.raises(Exception):
        ServeConfig().max_batch = 64  # type: ignore[misc]


def test_replace_builds_a_new_validated_config():
    config = ServeConfig().replace(workers=4)
    assert config.workers == 4
    with pytest.raises(ValueError):
        config.replace(max_batch=0)


def test_burst_defaults_to_rate():
    assert ServeConfig().burst is None
    assert ServeConfig(rate_limit_rps=5.0).burst == 5.0
    assert ServeConfig(rate_limit_rps=0.5).burst == 1.0  # floor of one
    assert ServeConfig(rate_limit_rps=5.0, rate_limit_burst=20.0).burst \
        == 20.0


def test_worker_config_strips_cluster_level_concerns():
    config = ServeConfig(workers=4, rate_limit_rps=10.0, verbose=True,
                         max_batch=8)
    worker = config.worker_config()
    assert worker.workers == 1
    assert worker.rate_limit_rps is None
    assert worker.verbose is False
    assert worker.max_batch == 8  # batching knobs pass through


@pytest.mark.parametrize("field", [
    "max_wait_ms", "rate_limit_rps", "rate_limit_burst", "drain_timeout_s",
    "score_timeout_s", "max_batch"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_values_raise(field, value):
    """Regression: NaN passed every ordered check, so a NaN wait killed
    the batcher thread and a NaN rate limit throttled every request."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ServeConfig(**{field: value})


def test_resolve_passes_explicit_config_through(served_model):
    """An explicit config is used as given; ``None`` means the defaults,
    and the HTTP server falls back to its engine's config."""
    config = ServeConfig(max_batch=8, warmup=False)
    eng = InferenceEngine(served_model, config)
    try:
        assert eng.config is config
        srv = ServingServer(eng)
        try:
            assert srv.config is config
        finally:
            srv.server_close()
    finally:
        eng.close()
    eng = InferenceEngine(served_model)
    try:
        assert eng.config == ServeConfig()
    finally:
        eng.close()


def test_resolve_rejects_unknown_and_mixed(served_model, served_archive):
    """A misspelled kwarg, or a config mixed with a loose field, is a
    TypeError at every entry point."""
    config = ServeConfig()
    entry_points = [
        lambda **kw: InferenceEngine(served_model, **kw),
        lambda **kw: ClusterEngine(served_archive, **kw),
        lambda **kw: ServingServer(object(), **kw),
        lambda **kw: run_server(str(served_archive), **kw),
    ]
    for build in entry_points:
        with pytest.raises(TypeError, match="max_btach"):
            build(max_btach=8)
        with pytest.raises(TypeError, match="max_batch"):
            build(config=config, max_batch=8)


def test_legacy_kwargs_are_type_errors(served_model, served_archive):
    """Every serve entry point takes a ServeConfig and nothing else."""
    entry_points = [
        lambda: InferenceEngine(served_model, max_batch=8),
        lambda: ClusterEngine(served_archive, max_batch=8),
        lambda: ServingServer(object(), max_batch=8),
        lambda: run_server(str(served_archive), max_batch=8),
    ]
    for build in entry_points:
        with pytest.raises(TypeError, match="max_batch"):
            build()
