"""Archives written while ``CLFDConfig`` still had a since-retired field.

Every archive saved before ``compile`` left the config carries
``"compile": false`` in ``meta["config"]``; every archive saved before
the encoder variants left carries ``encoder_cell``, ``pooling`` and
``fused_rnn``; every archive saved before the config's anomaly switch
left carries ``detect_anomaly``.  Float (v2) and int8 (v3) archives
alike must still load and score exactly as they did.  An archive of a deleted encoder
variant (a GRU or bidirectional LSTM cell, attention pooling) cannot be
rebuilt and must be refused by name, not scored as the LSTM.
"""

import json

import numpy as np
import pytest

from repro.core import build_clfd, load_clfd, read_archive


# The retired fields old archives carry, as each era wrote them: before
# ``compile`` left, before the encoder variants left, before
# ``detect_anomaly`` left, and all at once.
LEGACY_CONFIGS = [
    {"compile": False},
    {"compile": True},
    {"encoder_cell": "lstm", "pooling": "mean", "fused_rnn": True},
    {"encoder_cell": "lstm", "pooling": "mean", "fused_rnn": False},
    {"detect_anomaly": False},
    {"detect_anomaly": True},
    {"compile": False, "encoder_cell": "lstm", "pooling": "mean",
     "fused_rnn": True, "detect_anomaly": False},
]


def _with_config_fields(path, out, fields):
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert not set(fields) & set(meta["config"])
    meta["config"].update(fields)
    data["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                 dtype=np.uint8)
    np.savez(out, **data)
    return out


@pytest.mark.parametrize("archive", ["teacher_archive", "int8_archive"])
def test_archive_with_retired_field_scores_byte_equal(archive, quant_split,
                                                      request, tmp_path):
    path = request.getfixturevalue(archive)
    _, test = quant_split
    current = load_clfd(path)
    _, want = current.predict(test)
    for fields in LEGACY_CONFIGS:
        legacy = _with_config_fields(path, tmp_path / "legacy.npz", fields)
        model = load_clfd(legacy)
        _, got = model.predict(test)
        assert got.tobytes() == want.tobytes(), fields
        assert model.config == current.config, fields


@pytest.mark.parametrize("field,value", [
    ("encoder_cell", "gru"),
    ("encoder_cell", "bilstm"),
    ("pooling", "attention"),
])
@pytest.mark.parametrize("archive", ["teacher_archive", "int8_archive"])
def test_archive_of_a_deleted_encoder_variant_is_refused(
        archive, field, value, request, tmp_path):
    path = request.getfixturevalue(archive)
    legacy = _with_config_fields(path, tmp_path / "legacy.npz",
                                 {field: value})
    with pytest.raises(ValueError, match=f"{field}={value!r}"):
        load_clfd(legacy)
    meta, arrays = read_archive(legacy)
    with pytest.raises(ValueError, match=f"{field}={value!r}"):
        build_clfd(meta, arrays)
