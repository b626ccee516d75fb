"""Round-trip persistence: a reloaded archive predicts identically.

Covers the full model plus every ablated configuration of the paper's
ablation table, the co-teaching variant, the suffix-less-path
round-trip fixed alongside the serving work, and the atomic-save
guarantee.  Every CLFD round-trip also keeps its ``model_fingerprint``.
"""

import json

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.core import CoTeachingCLFD, load_clfd, model_fingerprint, save_clfd
from repro.experiments import ABLATIONS

from .conftest import TINY


def _fit(tiny_data, **overrides):
    train, _ = tiny_data
    config = CLFDConfig(**{**TINY, **overrides})
    return CLFD(config).fit(train, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def fitted(tiny_data):
    return _fit(tiny_data)


def _assert_same_predictions(model, restored, test):
    labels, scores = model.predict(test)
    labels2, scores2 = restored.predict(test)
    np.testing.assert_array_equal(labels, labels2)
    np.testing.assert_allclose(scores, scores2, rtol=0, atol=0)
    np.testing.assert_allclose(model.predict_proba(test),
                               restored.predict_proba(test),
                               rtol=0, atol=0)


def test_roundtrip_full_model(fitted, tiny_data, tmp_path):
    _, test = tiny_data
    restored = load_clfd(save_clfd(fitted, tmp_path / "full.npz"))
    _assert_same_predictions(fitted, restored, test)
    assert restored.config == fitted.config
    assert restored.vectorizer.max_len == fitted.vectorizer.max_len
    assert model_fingerprint(restored) == model_fingerprint(fitted)


_ABLATION_IDS = {"w/o LC": "detector-only", "w/o FD": "corrector-only"}


@pytest.mark.parametrize(
    "overrides",
    [ABLATIONS[variant] for variant in ABLATIONS if variant != "CLFD"],
    ids=[_ABLATION_IDS.get(variant, variant)
         for variant in ABLATIONS if variant != "CLFD"])
def test_roundtrip_ablated_configs(tiny_data, tmp_path, overrides):
    _, test = tiny_data
    model = _fit(tiny_data, **overrides)
    restored = load_clfd(save_clfd(model, tmp_path / "ablated.npz"))
    _assert_same_predictions(model, restored, test)
    assert model_fingerprint(restored) == model_fingerprint(model)


def test_co_teaching_saves_its_detector(tiny_data, tmp_path):
    """A co-teaching model persists as a detector archive: its two
    correctors only produced the training labels."""
    train, test = tiny_data
    model = CoTeachingCLFD(CLFDConfig(**TINY)).fit(
        train, rng=np.random.default_rng(3))
    path = save_clfd(model, tmp_path / "coteach.npz")
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        assert not any(key.startswith("corrector") for key in archive.files)
    assert meta["has_corrector"] is False
    assert meta["has_detector"] is True
    _assert_same_predictions(model, load_clfd(path), test)


def test_roundtrip_preserves_vocab(fitted, tiny_data, tmp_path):
    train, _ = tiny_data
    restored = load_clfd(save_clfd(fitted, tmp_path / "vocab.npz"))
    assert restored.vectorizer.vocab is not None
    assert restored.vectorizer.vocab.tokens() == train.vocab.tokens()


def test_suffixless_path_roundtrip(fitted, tiny_data, tmp_path):
    """save(m, "model") / load("model") must agree on the real filename."""
    _, test = tiny_data
    written = save_clfd(fitted, tmp_path / "model")
    assert written.name == "model.npz"
    assert written.exists()
    restored = load_clfd(tmp_path / "model")
    _assert_same_predictions(fitted, restored, test)


def test_save_overwrites_atomically(fitted, tmp_path):
    """A second save replaces the archive and leaves no temp litter."""
    path = save_clfd(fitted, tmp_path / "model.npz")
    before = path.stat().st_size
    again = save_clfd(fitted, tmp_path / "model.npz")
    assert again == path
    assert path.stat().st_size == before
    leftovers = [p for p in tmp_path.iterdir() if p.name != "model.npz"]
    assert leftovers == []


def test_save_failure_leaves_target_untouched(fitted, tmp_path, monkeypatch):
    """If serialization dies mid-write, the published archive survives."""
    path = save_clfd(fitted, tmp_path / "model.npz")
    payload = path.read_bytes()

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", boom)
    with pytest.raises(OSError):
        save_clfd(fitted, tmp_path / "model.npz")
    assert path.read_bytes() == payload
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


def test_all_readable_versions_load(fitted, tiny_data, tmp_path):
    """v1 (pre-vocabulary), v2 (current) and v3 (quantized) archives all
    load through ``load_clfd``."""
    import json

    from repro.quant import QuantizedCLFD, quantize_archive

    _, test = tiny_data
    batch = test[list(range(8))]
    v2_path = save_clfd(fitted, tmp_path / "v2.npz")

    # Rewrite the header as a version-1 archive (no vocabulary field).
    with np.load(v2_path) as archive:
        data = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(data["meta"]).decode())
    meta["format_version"] = 1
    del meta["vocab"]
    data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    v1_path = tmp_path / "v1.npz"
    np.savez(v1_path, **data)

    v3_path = quantize_archive(v2_path, tmp_path / "v3.npz")

    v1 = load_clfd(v1_path)
    assert v1.vectorizer.vocab is None
    _assert_same_predictions(fitted, v1, batch)

    _assert_same_predictions(fitted, load_clfd(v2_path), batch)

    v3 = load_clfd(v3_path)
    assert isinstance(v3, QuantizedCLFD)
    assert v3.precision == "int8"
    _, scores = fitted.predict(batch)
    _, qscores = v3.predict(batch)
    np.testing.assert_allclose(qscores, scores, atol=2e-2)


def test_quantized_roundtrip_is_deterministic(fitted, tiny_data, tmp_path):
    """quantize -> save -> load -> score is bit-stable across runs."""
    from repro.quant import quantize_archive

    _, test = tiny_data
    batch = test[list(range(8))]
    src = save_clfd(fitted, tmp_path / "src.npz")
    first = quantize_archive(src, tmp_path / "q1.npz")
    second = quantize_archive(src, tmp_path / "q2.npz")
    assert first.read_bytes() == second.read_bytes()
    _, a = load_clfd(first).predict(batch)
    _, b = load_clfd(second).predict(batch)
    np.testing.assert_array_equal(a, b)


def test_save_rejects_unfitted_model(tmp_path):
    with pytest.raises(ValueError):
        save_clfd(CLFD(), tmp_path / "nope.npz")


def test_loaded_model_serves_v2_tokens(fitted, tiny_data, tmp_path):
    """The archive vocabulary is enough to score raw token sessions."""
    from repro.serve import InferenceEngine, ServeConfig

    train, _ = tiny_data
    restored = load_clfd(save_clfd(fitted, tmp_path / "serve.npz"))
    tokens = train.vocab.decode(train.sessions[0].activities)
    config = ServeConfig(max_wait_ms=0, warmup=False)
    with InferenceEngine(restored, config) as engine:
        result = engine.score({"activities": tokens})
    assert result.oov_count == 0
    assert 0.0 <= result.score <= 1.0
