"""InferenceEngine: parity with model.predict, OOV handling, degradation."""

import numpy as np
import pytest

from repro.core.encoder import InferenceForward
from repro.serve import (InferenceEngine, RequestError, ServeConfig,
                         ServingMetrics)


@pytest.fixture(scope="module")
def engine(served_model):
    eng = InferenceEngine(served_model,
                          ServeConfig(max_batch=8, max_wait_ms=1.0))
    yield eng
    eng.close()


def _payload(test, row, vocab=None):
    session = test.sessions[row]
    activities = (vocab.decode(session.activities) if vocab is not None
                  else [int(a) for a in session.activities])
    return {"activities": activities, "session_id": f"row-{row}"}


def test_scores_match_model_predict(engine, served_model, serve_split):
    _, test = serve_split
    results = engine.score_many(
        [_payload(test, row) for row in range(12)])
    labels, scores = served_model.predict(test[list(range(12))])
    np.testing.assert_array_equal([r.label for r in results], labels)
    np.testing.assert_allclose([r.score for r in results], scores)
    for r in results:
        assert r.probs[0] + r.probs[1] == pytest.approx(1.0)
        assert r.oov_count == 0


def test_token_and_id_requests_agree(engine, serve_split):
    _, test = serve_split
    by_tokens = engine.score(_payload(test, 0, vocab=test.vocab))
    by_ids = engine.score(_payload(test, 0))
    assert by_tokens.score == pytest.approx(by_ids.score, abs=1e-12)


def test_unseen_tokens_degrade_to_oov(engine, serve_split):
    _, test = serve_split
    payload = _payload(test, 0, vocab=test.vocab)
    payload["activities"] = ["<never-seen>"] + payload["activities"]
    result = engine.score(payload)
    assert result.oov_count == 1
    assert np.isfinite(result.score)


def test_out_of_range_ids_degrade_to_oov(engine):
    result = engine.score({"activities": [10_000_000, 1, -4]})
    assert result.oov_count == 2


def test_malformed_request_is_structured_error(engine):
    with pytest.raises(RequestError) as excinfo:
        engine.score({"activities": []})
    assert excinfo.value.code == "empty_session"


def test_malformed_request_does_not_poison_batch(engine, serve_split):
    """A bad payload fails at submit; queued good payloads still score."""
    _, test = serve_split
    good = engine.submit(_payload(test, 1))
    with pytest.raises(RequestError):
        engine.submit({"activities": []})
    assert good.result(timeout=10).session_id == "row-1"


def test_session_longer_than_max_len_is_truncated(engine, served_model):
    max_len = served_model.vectorizer.max_len
    long = {"activities": [1] * (max_len + 50)}
    short = {"activities": [1] * max_len}
    assert engine.score(long).score == pytest.approx(
        engine.score(short).score, abs=1e-12)


def test_queue_full_maps_to_429(served_model):
    eng = InferenceEngine(
        served_model, ServeConfig(max_batch=1, max_wait_ms=0,
                                  max_queue=1, warmup=False))
    # Flood a single-slot queue until backpressure kicks in.
    futures, codes = [], []
    try:
        for _ in range(200):
            futures.append(eng.submit({"activities": [1]}))
    except RequestError as exc:
        codes.append((exc.code, exc.status))
    for f in futures:
        f.result(timeout=30)
    eng.close()
    assert codes and codes[0] == ("queue_full", 429)


def test_score_many_beyond_max_queue(served_model, serve_split):
    """One call may score far more payloads than the queue holds; the
    results equal scoring each payload on its own."""
    _, test = serve_split
    payloads = [dict(_payload(test, row % len(test)), session_id=f"p{row}")
                for row in range(200)]
    with InferenceEngine(served_model,
                         ServeConfig(max_batch=4, max_wait_ms=1.0,
                                     max_queue=8)) as eng:
        many = eng.score_many(payloads)
        one_by_one = [eng.score(p) for p in payloads]
    assert [r.session_id for r in many] == [p["session_id"]
                                            for p in payloads]
    assert [r.score for r in many] == [r.score for r in one_by_one]
    assert [r.probs for r in many] == [r.probs for r in one_by_one]


def test_include_embeddings(served_model):
    with InferenceEngine(
            served_model, ServeConfig(include_embeddings=True,
                                      max_wait_ms=0)) as eng:
        result = eng.score({"activities": [1, 2]})
    assert result.embedding is not None
    assert len(result.embedding) > 0
    assert np.all(np.isfinite(result.embedding))
    assert "embedding" in result.to_dict()


def test_batching_is_observable_in_metrics(served_model, serve_split):
    _, test = serve_split
    metrics = ServingMetrics()
    with InferenceEngine(served_model,
                         ServeConfig(max_batch=16, max_wait_ms=20),
                         metrics=metrics) as eng:
        eng.score_many([_payload(test, row) for row in range(16)])
    sizes = metrics.snapshot()["batch_size_histogram"]
    # score_many enqueues everything before waiting, so at least one
    # multi-session batch must have formed.
    assert any(int(size) > 1 for size in sizes)
    assert eng.profiler.regions.get("batch_forward", 0.0) > 0.0


def test_token_requests_require_vocab(served_model):
    vectorizer = served_model.vectorizer
    saved_vocab = vectorizer.vocab
    vectorizer.vocab = None  # simulate a format-v1 archive
    try:
        with InferenceEngine(
                served_model,
                ServeConfig(max_wait_ms=0, warmup=False)) as eng:
            assert eng.score({"activities": [1]}).label in (0, 1)
            with pytest.raises(RequestError) as excinfo:
                eng.score({"activities": ["login"]})
            assert excinfo.value.code == "tokens_unsupported"
    finally:
        vectorizer.vocab = saved_vocab


def test_engine_requires_fitted_model():
    from repro import CLFD

    with pytest.raises(ValueError):
        InferenceEngine(CLFD())


def test_non_finite_score_carries_structured_warning(served_model,
                                                     serve_split,
                                                     monkeypatch):
    """A numerically-broken model must not masquerade as a confident
    verdict: the result carries a warnings entry and /score-style
    serialization turns the NaN into null."""
    _, test = serve_split
    eng = InferenceEngine(served_model,
                          ServeConfig(max_batch=4, max_wait_ms=1.0))
    try:
        def broken_classify(self, features):
            n = len(features)
            scores = np.full(n, np.nan)
            return np.zeros(n, dtype=int), scores

        monkeypatch.setattr(InferenceForward, "classify", broken_classify)
        result = eng.score(_payload(test, 0))
        assert result.warnings and "not finite" in result.warnings[0]
        body = result.to_dict()
        assert body["score"] is None
        assert body["warnings"]
    finally:
        eng.close()


def test_finite_score_has_no_warnings(engine, serve_split):
    _, test = serve_split
    result = engine.score(_payload(test, 1))
    assert result.warnings == ()
    assert "warnings" not in result.to_dict()


def test_results_are_generation_tagged(engine):
    result = engine.score({"activities": [1, 2]})
    assert result.generation == 0
    assert result.worker is None  # in-process, no cluster shard


def test_rolling_reload_flips_generation(served_model, served_archive_v2):
    from repro.core import load_clfd

    eng = InferenceEngine(served_model, ServeConfig(max_wait_ms=1.0))
    try:
        payload = {"activities": [1, 2, 3], "session_id": "r1"}
        before = eng.score(payload)
        assert before.generation == 0
        gen = eng.reload(served_archive_v2)
        assert gen == 1 and eng.generation == 1
        after = eng.score(payload)
        assert after.generation == 1
        # The reloaded engine scores exactly like a fresh engine over
        # the new archive.
        with InferenceEngine(load_clfd(served_archive_v2),
                             ServeConfig(max_wait_ms=1.0)) as fresh:
            assert after.score == fresh.score(payload).score
    finally:
        eng.close()


def test_reload_drains_in_flight_requests(served_model, served_archive):
    """Requests queued before the flip resolve against the generation
    that accepted them — a reload drops nothing."""
    eng = InferenceEngine(served_model,
                          ServeConfig(max_batch=4, max_wait_ms=40.0))
    try:
        futures = [eng.submit({"activities": [1, 2], "session_id": f"g{i}"})
                   for i in range(8)]
        eng.reload(served_archive)  # same archive, next generation
        results = [f.result(timeout=30) for f in futures]
        assert all(r.generation == 0 for r in results)
        assert eng.score({"activities": [1, 2]}).generation == 1
    finally:
        eng.close()


def test_submit_after_close_is_structured_503(served_model):
    eng = InferenceEngine(served_model,
                          ServeConfig(max_wait_ms=0, warmup=False))
    eng.close()
    with pytest.raises(RequestError) as excinfo:
        eng.submit({"activities": [1]})
    assert excinfo.value.code == "shutting_down"
    assert excinfo.value.status == 503


def test_config_and_legacy_kwargs_together_is_type_error(served_model):
    with pytest.raises(TypeError):
        InferenceEngine(served_model, ServeConfig(), max_batch=8)


def test_unknown_legacy_kwarg_is_type_error(served_model):
    with pytest.raises(TypeError):
        InferenceEngine(served_model, max_btach=8)


def _buffers(workspace):
    """Every array of a workspace: ids, lengths and each grid's buffers."""
    arrays = [workspace.ids, workspace.lengths]
    for grid in workspace.grids.values():
        arrays += [a for a in vars(grid).values() if isinstance(a, np.ndarray)]
    return arrays


def test_score_batch_reuses_one_workspace_per_generation(served_model,
                                                         serve_split):
    """After warm-up a single-session batch allocates less than one
    ``(max_batch, max_len, 4*hidden)`` buffer of the compute dtype;
    consecutive batches write the same workspace arrays, and a reload
    brings a workspace of its own."""
    import tracemalloc

    from repro.serve.schemas import parse_session

    _, test = serve_split
    config = ServeConfig()
    eng = InferenceEngine(served_model, config)
    try:
        runtime = eng._active[0]
        items = [runtime.encode(parse_session(_payload(test, row)))
                 for row in range(3)]
        workspace = runtime.workspace
        addresses = [a.ctypes.data for a in _buffers(workspace)]
        model_config = served_model.config
        grid_bytes = (config.max_batch * served_model.vectorizer.max_len
                      * 4 * model_config.hidden_size
                      * np.dtype(model_config.compute_dtype).itemsize)
        eng._score_batch(runtime, [items[0]])
        tracemalloc.start()
        try:
            eng._score_batch(runtime, [items[1]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes, (peak, grid_bytes)
        eng._score_batch(runtime, [items[2]])
        assert runtime.workspace is workspace
        assert [a.ctypes.data for a in _buffers(workspace)] == addresses

        eng.reload_model(served_model)
        fresh = eng._active[0]
        assert fresh is not runtime and fresh.workspace is not workspace
        assert not any(np.shares_memory(a, b)
                       for a in _buffers(fresh.workspace)
                       for b in _buffers(workspace))
        assert eng.score(_payload(test, 0)).generation == 1
    finally:
        eng.close()
