"""Archives written while ``CLFDConfig`` still had a since-retired field.

Every archive saved before ``compile`` left the config carries
``"compile": false`` in ``meta["config"]``; float (v2) and int8 (v3)
archives alike must still load and score exactly as they did.
"""

import json

import numpy as np
import pytest

from repro.core import load_clfd


def _with_config_field(path, out, field, value):
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    assert field not in meta["config"]
    meta["config"][field] = value
    data["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                 dtype=np.uint8)
    np.savez(out, **data)
    return out


@pytest.mark.parametrize("archive", ["teacher_archive", "int8_archive"])
def test_archive_with_retired_field_scores_byte_equal(archive, quant_split,
                                                      request, tmp_path):
    path = request.getfixturevalue(archive)
    legacy = _with_config_field(path, tmp_path / "legacy.npz",
                                "compile", False)
    _, test = quant_split
    model = load_clfd(legacy)
    _, want = load_clfd(path).predict(test)
    _, got = model.predict(test)
    assert got.tobytes() == want.tobytes()
    assert model.config == load_clfd(path).config
