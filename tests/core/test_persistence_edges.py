"""Edge cases for model persistence."""

import numpy as np
import pytest

from repro.core import persistence


def test_load_clfd_rejects_future_format(tmp_path, monkeypatch):
    """Archives written by a newer format version must be refused."""
    import json

    payload = {
        "meta": np.frombuffer(
            json.dumps({"format_version": 999, "config": {},
                        "max_len": 4, "has_corrector": False,
                        "has_detector": False}).encode(),
            dtype=np.uint8,
        ),
        "word2vec/vectors": np.zeros((3, 2)),
    }
    path = tmp_path / "future.npz"
    np.savez(path, **payload)
    with pytest.raises(ValueError):
        persistence.load_clfd(path)


def test_flatten_extract_state_roundtrip():
    state = {"w": np.arange(3.0), "nested.b": np.ones(2)}
    out: dict = {}
    persistence._flatten_state("enc", state, out)
    assert set(out) == {"enc/w", "enc/nested.b"}
    back = persistence._extract_state("enc", out)
    np.testing.assert_array_equal(back["w"], state["w"])
    np.testing.assert_array_equal(back["nested.b"], state["nested.b"])


def test_extract_state_ignores_other_prefixes():
    archive = {"a/x": np.zeros(1), "b/x": np.ones(1)}
    assert list(persistence._extract_state("a", archive)) == ["x"]
