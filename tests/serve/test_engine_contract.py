"""The engine surface InferenceEngine and ClusterEngine share, checked
once against both: an in-process engine ("local") and a two-worker
cluster ("cluster").

One module-scoped engine per kind serves the read-mostly tests; the
shutdown test builds its own, because it closes it.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import (ClusterEngine, InferenceEngine, RequestError,
                         ServeConfig, ServingServer)

ENGINE_CONFIG = ServeConfig(max_batch=8, max_wait_ms=1.0, port=0)
KINDS = ["local", "cluster"]

# Series both engines expose (the cluster adds its worker series, the
# local engine its forward-pass profile region).
SHARED_SERIES = {
    "repro_serve_requests_total", "repro_serve_sessions_total",
    "repro_serve_batch_size_count", "repro_serve_batch_seconds_total",
    "repro_serve_latency_seconds", "repro_serve_generation",
    "repro_serve_queue_depth", "repro_serve_precision",
}


def _build(kind, served_model, served_archive):
    if kind == "local":
        return InferenceEngine(served_model, ENGINE_CONFIG)
    return ClusterEngine(served_archive, ENGINE_CONFIG.replace(workers=2))


@pytest.fixture(scope="module", params=KINDS)
def engine(request, served_model, served_archive):
    with _build(request.param, served_model, served_archive) as eng:
        yield eng


def _payloads(n, prefix):
    return [{"activities": [1 + i % 3, 2, 3], "session_id": f"{prefix}{i}"}
            for i in range(n)]


def _series(text):
    """Metric names in a Prometheus text exposition."""
    return {line.split("{")[0].split(" ")[0]
            for line in text.splitlines() if not line.startswith("#")}


def test_submit_score_and_score_many(engine):
    future = engine.submit({"activities": [1, 2], "session_id": "one"})
    result = future.result(timeout=30)
    assert result.session_id == "one"
    assert result.generation == 0
    assert result.label in (0, 1)
    assert engine.score({"activities": [1, 2], "session_id": "one"}).score \
        == result.score
    payloads = _payloads(20, "many-")
    results = engine.score_many(payloads)
    assert [r.session_id for r in results] == [p["session_id"]
                                               for p in payloads]
    with pytest.raises(RequestError) as excinfo:
        engine.submit({"activities": []})
    assert excinfo.value.code == "empty_session"


def test_every_session_passes_through_submit(engine, monkeypatch):
    """score and score_many go through ``self.submit`` as looked up at
    call time, so wrapping it sees every session."""
    seen = []
    submit = engine.submit

    def spy(payload, **kwargs):
        seen.append(payload["session_id"])
        return submit(payload, **kwargs)

    monkeypatch.setattr(engine, "submit", spy)
    engine.score_many(_payloads(5, "spy-"))
    engine.score({"activities": [1], "session_id": "spy-last"})
    assert seen == [f"spy-{i}" for i in range(5)] + ["spy-last"]


def test_health_and_metrics_share_fields(engine):
    engine.score({"activities": [1, 2, 3]})
    health = engine.health()
    assert health["status"] == "ok"
    assert health["generation"] == 0
    assert health["queue_depth"] >= 0
    snap = engine.metrics_snapshot()
    for key in ("requests_total", "sessions_total", "latency_seconds",
                "mean_batch_size", "batch_size_histogram"):
        assert key in snap
    assert snap["generation"] == 0
    assert snap["precision"] == engine.precision
    text = engine.metrics_prometheus()
    assert SHARED_SERIES <= _series(text)
    assert "repro_serve_generation 0" in text
    assert f'repro_serve_precision{{precision="{engine.precision}"}} 1' \
        in text


def _healthz(server):
    url = f"http://127.0.0.1:{server.port}/v1/healthz"
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, json.loads(resp.read())["status"]
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())["status"]


@pytest.mark.parametrize("kind", KINDS)
def test_close_turns_health_and_submit_to_shutting_down(
        kind, served_model, served_archive):
    """Regression: health said ``ok`` while close drained, so a load
    balancer kept routing to a server that answered 503."""
    eng = _build(kind, served_model, served_archive)
    srv = ServingServer(eng, model_name=kind)
    srv.start_background()
    during = []
    stop = eng._stop

    def observed_stop():  # runs once close has begun, before draining
        during.append((eng.health()["status"], _healthz(srv)))
        stop()

    eng._stop = observed_stop
    try:
        assert _healthz(srv) == (200, "ok")
        eng.score({"activities": [1, 2]})
    finally:
        srv.shutdown()  # closes the engine first, then the HTTP loop
    assert during == [("shutting_down", (503, "shutting_down"))]
    assert eng.health()["status"] == "shutting_down"
    with pytest.raises(RequestError) as excinfo:
        eng.submit({"activities": [1]})
    assert (excinfo.value.code, excinfo.value.status) == ("shutting_down",
                                                          503)
