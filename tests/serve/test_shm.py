"""Shared-memory archives: publish/attach round trips, zero-copy binds."""

import numpy as np
import pytest

from repro.core import build_clfd, load_clfd
from repro.serve import SharedArchive


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(0)
    return {
        "a/w": rng.normal(size=(7, 5)).astype(np.float64),
        "a/b": rng.normal(size=(5,)).astype(np.float64),
        "ids": np.arange(11, dtype=np.int64),
    }


def test_publish_attach_round_trip(arrays):
    with SharedArchive.publish({"k": 1}, arrays, generation=3) as shared:
        assert shared.generation == 3
        for key, value in arrays.items():
            np.testing.assert_array_equal(shared.arrays[key], value)
        attached = SharedArchive.attach(shared.manifest)
        try:
            for key, value in arrays.items():
                np.testing.assert_array_equal(attached.arrays[key], value)
                # Same physical pages, not a copy.
                assert attached.arrays[key].base is not None
        finally:
            attached.close()


def test_views_are_read_only(arrays):
    with SharedArchive.publish({}, arrays) as shared:
        with pytest.raises(ValueError):
            shared.arrays["ids"][0] = 99
        attached = SharedArchive.attach(shared.manifest)
        try:
            with pytest.raises(ValueError):
                attached.arrays["a/w"][0, 0] = 1.0
        finally:
            attached.close()


def test_manifest_is_plain_data(arrays):
    import json

    with SharedArchive.publish({"meta": {"x": 1}}, arrays) as shared:
        # Must survive pickling/JSON to cross a spawn boundary.
        json.dumps(shared.manifest)
        assert shared.manifest["generation"] == 0
        assert {entry["key"] for entry in shared.manifest["arrays"]} \
            == set(arrays)


def test_unlinked_segment_cannot_be_attached(arrays):
    shared = SharedArchive.publish({}, arrays)
    manifest = shared.manifest
    shared.unlink()
    shared.close()
    with pytest.raises(FileNotFoundError):
        SharedArchive.attach(manifest)


def test_close_tolerates_live_views(arrays):
    shared = SharedArchive.publish({}, arrays)
    view = shared.arrays["ids"]  # keeps the buffer exported
    shared.unlink()
    shared.close()  # must not raise BufferError
    assert int(view[3]) == 3  # mapping stays valid until the view dies
    with pytest.raises(RuntimeError):
        shared.arrays  # but the archive no longer hands out arrays


def test_publish_archive_and_bind_model(served_archive, serve_split):
    """The cluster-worker path: archive -> shm -> bind=True model whose
    parameters ARE the shared views, scoring identically."""
    _, test = serve_split
    reference = load_clfd(served_archive)
    ref_labels, ref_scores = reference.predict(test[list(range(10))])

    with SharedArchive.publish_archive(served_archive) as shared:
        bound = build_clfd(shared.manifest["meta"], shared.arrays, bind=True)
        labels, scores = bound.predict(test[list(range(10))])
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(scores, ref_scores)  # bit-identical
        # Zero-copy: model parameters share memory with the shm views.
        detector = bound.fraud_detector
        state = dict(detector.encoder.named_parameters())
        name, param = next(iter(state.items()))
        shm_array = shared.arrays[f"detector/encoder/{name}"]
        assert np.shares_memory(param.data, shm_array)
        assert np.shares_memory(bound.vectorizer.model.vectors,
                                shared.arrays["word2vec/vectors"])


def test_mixed_dtype_manifest_round_trip():
    """Quantized segments mix int8 payloads, float16 tables, float32
    scales and integer auxiliaries: every manifest entry must carry its
    own dtype plus its storage kind, and attach must reproduce each
    array exactly."""
    rng = np.random.default_rng(1)
    arrays = {
        "enc/w": (rng.normal(size=(6, 4)) * 10).astype(np.int8),
        "enc/w/scale": rng.uniform(0.1, 1.0, 4).astype(np.float32),
        "emb": rng.normal(size=(5, 3)).astype(np.float16),
        "emb/scale": rng.uniform(0.5, 2.0, 5).astype(np.float32),
        "bias": rng.normal(size=4).astype(np.float32),
        "ids": np.arange(7, dtype=np.int64),
    }
    meta = {"quant": {"precision": "int8",
                      "arrays": {"enc/w": "int8", "emb": "fp16_rows",
                                 "bias": "raw", "ids": "raw"}}}
    with SharedArchive.publish(meta, arrays) as shared:
        assert shared.precision == "int8"
        entries = {e["key"]: e for e in shared.manifest["arrays"]}
        assert entries["enc/w"]["dtype"] == "int8"
        assert entries["enc/w"]["kind"] == "int8"
        assert entries["enc/w/scale"]["dtype"] == "float32"
        assert entries["enc/w/scale"]["kind"] == "scale"
        assert entries["emb"]["dtype"] == "float16"
        assert entries["emb"]["kind"] == "fp16_rows"
        assert entries["emb/scale"]["kind"] == "scale"
        assert entries["ids"]["dtype"] == "int64"
        attached = SharedArchive.attach(shared.manifest)
        try:
            for key, value in arrays.items():
                assert attached.arrays[key].dtype == value.dtype
                np.testing.assert_array_equal(attached.arrays[key], value)
        finally:
            attached.close()


def test_full_precision_manifest_has_no_kinds(arrays):
    with SharedArchive.publish({}, arrays) as shared:
        assert shared.precision is None
        assert all("kind" not in entry
                   for entry in shared.manifest["arrays"])


def test_publish_archive_quantizes_before_copy_in(served_archive,
                                                  serve_split):
    """The cluster's low-precision path: the segment holds the int8
    payloads, workers bind them zero-copy, and scores match the
    single-process quantized load bit for bit."""
    _, test = serve_split
    batch = test[list(range(10))]
    reference = load_clfd(served_archive, precision="int8")
    ref_labels, ref_scores = reference.predict(batch)

    with SharedArchive.publish_archive(served_archive,
                                       precision="int8") as shared:
        assert shared.precision == "int8"
        bound = build_clfd(shared.manifest["meta"], shared.arrays,
                           bind=True)
        labels, scores = bound.predict(batch)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(scores, ref_scores)
        # Zero-copy: the runtime's payloads ARE the shm views.
        key = "detector/classifier/fc1.weight"
        assert shared.arrays[key].dtype == np.int8
        assert np.shares_memory(bound.classifier.fc1.payload,
                                shared.arrays[key])
        assert np.shares_memory(bound.vectorizer.model.table,
                                shared.arrays["word2vec/vectors"])


def test_load_state_dict_copy_false_binds(served_archive):
    model = load_clfd(served_archive)
    encoder = model.fraud_detector.encoder
    state = {name: param.data.copy()
             for name, param in encoder.named_parameters()}
    encoder.load_state_dict(state, copy=False)
    for name, param in encoder.named_parameters():
        assert param.data is state[name]
    # dtype mismatch falls back to an astype copy
    cast = {name: value.astype(np.float32)
            for name, value in state.items()}
    encoder.load_state_dict(cast, copy=False)
    for name, param in encoder.named_parameters():
        assert param.data is not cast[name]
