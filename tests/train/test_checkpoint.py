"""Tests for the atomic tagged checkpoint store."""

import os
import stat

import numpy as np
import pytest

from repro.nn.serialize import save_arrays
from repro.train import CheckpointManager, MetricJournal


@pytest.fixture()
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpt")


def test_nested_roundtrip_is_bitwise(manager):
    state = {
        "model": {"w": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.zeros(4, dtype=np.float32)},
        "optimizer": {"t": 17, "moments": [np.ones(3), np.full(3, 0.5)]},
        "history": [1.5, 1.25, 1.125],
        "phase": "corrector/ssl",
        "done": False,
        "nothing": None,
    }
    manager.save("corrector/ssl", state)
    loaded = manager.load("corrector/ssl")
    assert loaded["phase"] == "corrector/ssl"
    assert loaded["done"] is False and loaded["nothing"] is None
    assert loaded["optimizer"]["t"] == 17
    assert loaded["history"] == [1.5, 1.25, 1.125]
    np.testing.assert_array_equal(loaded["model"]["w"], state["model"]["w"])
    assert loaded["model"]["b"].dtype == np.float32
    for got, want in zip(loaded["optimizer"]["moments"],
                         state["optimizer"]["moments"]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_dtypes_and_shapes_preserved(manager):
    state = {
        "i8": np.array([-1, 2], dtype=np.int8),
        "u32": np.array([[7]], dtype=np.uint32),
        "f16": np.array([0.5], dtype=np.float16),
        "bools": np.array([True, False]),
        "empty": np.zeros((0, 3)),
    }
    manager.save("dtypes", state)
    loaded = manager.load("dtypes")
    for key, want in state.items():
        assert loaded[key].dtype == want.dtype, key
        assert loaded[key].shape == want.shape, key
        np.testing.assert_array_equal(loaded[key], want)


def test_128bit_int_survives(manager):
    # PCG64 state is a 128-bit integer; JSON round-trip must keep it.
    big = (1 << 127) + 12345
    manager.save("rng", {"rng": {"state": {"state": big, "inc": 3}}})
    assert manager.load("rng")["rng"]["state"]["state"] == big


def test_load_missing_returns_none(manager):
    assert manager.load("nope") is None
    assert not manager.has("nope")


def test_overwrite_replaces_previous_snapshot(manager):
    manager.save("t", {"epoch": 1, "w": np.zeros(2)})
    manager.save("t", {"epoch": 2, "w": np.ones(2)})
    loaded = manager.load("t")
    assert loaded["epoch"] == 2
    np.testing.assert_array_equal(loaded["w"], np.ones(2))
    # No stray temp files left behind.
    leftovers = [p.name for p in manager.directory.iterdir()
                 if p.name.startswith(".")]
    assert leftovers == []


def test_tags_has_remove_clear(manager):
    manager.save("vectorizer", {"a": 1})
    manager.save("corrector/ssl", {"a": 2})
    manager.save("corrector/head", {"a": 3})
    assert manager.tags() == ["corrector/head", "corrector/ssl",
                              "vectorizer"]
    assert manager.has("corrector/ssl")
    manager.remove("corrector/ssl")
    assert not manager.has("corrector/ssl")
    manager.clear()
    assert manager.tags() == []


def test_invalid_tags_rejected(manager):
    with pytest.raises(ValueError):
        manager.save("", {"a": 1})
    with pytest.raises(ValueError):
        manager.save("..", {"a": 1})


def test_unsupported_values_raise_typeerror(manager):
    with pytest.raises(TypeError):
        manager.save("bad", {"fn": lambda x: x})
    with pytest.raises(TypeError):
        manager.save("bad", {1: "non-str key"})


def test_numpy_scalars_coerced(manager):
    manager.save("scalars", {"i": np.int64(5), "f": np.float32(0.25),
                             "b": np.bool_(True)})
    loaded = manager.load("scalars")
    assert loaded == {"i": 5, "f": 0.25, "b": True}
    assert isinstance(loaded["i"], int) and isinstance(loaded["b"], bool)


def _assert_fsyncs_file_then_directory(monkeypatch, write):
    kinds = []
    real_fsync = os.fsync

    def spy_fsync(fd):
        kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    write()
    assert "file" in kinds, "temp file never fsynced before os.replace"
    assert "dir" in kinds, "parent directory never fsynced after rename"
    assert kinds.index("file") < kinds.index("dir")


def test_save_fsyncs_payload_and_directory(manager, monkeypatch):
    """Durability: the temp file must be fsynced before os.replace (an
    unsynced rename can commit a zero-length snapshot across a power
    loss) and the parent directory after it (or the rename itself can
    be lost)."""
    _assert_fsyncs_file_then_directory(
        monkeypatch, lambda: manager.save("durable", {"w": np.ones(3)}))


def _compact_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"phase": "fit", "epoch": 0}\n{"torn')
    MetricJournal(path, resume=True)


@pytest.mark.parametrize("write", [
    lambda tmp_path: save_arrays(tmp_path / "model.npz", {"w": np.ones(3)}),
    _compact_journal,
], ids=["save_arrays", "journal-compaction"])
def test_durable_site_fsyncs_payload_then_directory(tmp_path, monkeypatch,
                                                    write):
    """The other durable sites keep the checkpoint's posture."""
    _assert_fsyncs_file_then_directory(monkeypatch,
                                       lambda: write(tmp_path))


def test_save_error_path_does_not_mask_original_exception(manager,
                                                          monkeypatch):
    """Regression: the cleanup unlink used to run in a bare finally —
    if it raised (or the temp file check did), the original write error
    was replaced by the cleanup error."""

    def exploding_savez(fh, **payload):
        raise OSError("disk full")

    monkeypatch.setattr("repro.train.checkpoint.np.savez", exploding_savez)
    # Make the cleanup itself fail too: unlink raising must not shadow
    # the original error.
    monkeypatch.setattr("pathlib.Path.unlink",
                        lambda self, **kw: (_ for _ in ()).throw(
                            PermissionError("read-only")))
    with pytest.raises(OSError, match="disk full"):
        manager.save("broken", {"w": np.ones(2)})


def test_save_error_path_removes_temp_file(manager, monkeypatch):
    monkeypatch.setattr(
        "repro.train.checkpoint.np.savez",
        lambda fh, **payload: (_ for _ in ()).throw(OSError("disk full")))
    with pytest.raises(OSError, match="disk full"):
        manager.save("broken", {"w": np.ones(2)})
    leftovers = [p.name for p in manager.directory.iterdir()
                 if p.name.startswith(".")]
    assert leftovers == []
