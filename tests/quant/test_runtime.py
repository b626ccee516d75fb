"""The quantized runtime scores like the float model it was built from.

Covers the default architecture (deep: int8 vs full-precision closeness
and quantized-archive determinism) and centroid inference (shallow: a
cheaply-trained model, quantized and compared against its own float
predictions).
"""

import numpy as np
import pytest

from repro import CLFD, CLFDConfig
from repro.core import load_clfd, save_clfd
from repro.core.persistence import read_archive
from repro.quant import QuantizedCLFD, build_quantized, quantize_arrays

from .conftest import QUANT_CONFIG


def _subset(split, n=64):
    _, test = split
    return test[list(range(min(n, len(test))))]


def test_int8_scores_track_full_precision(quant_split, reference_model,
                                          int8_archive):
    batch = _subset(quant_split)
    quantized = load_clfd(int8_archive)
    assert isinstance(quantized, QuantizedCLFD)
    assert quantized.precision == "int8"
    labels, scores = reference_model.predict(batch)
    qlabels, qscores = quantized.predict(batch)
    np.testing.assert_allclose(qscores, scores, atol=5e-3)
    assert (qlabels == labels).mean() >= 0.98
    probs = quantized.predict_proba(batch)
    np.testing.assert_allclose(probs[:, 1], qscores, rtol=0, atol=0)


def test_float16_is_tighter_than_int8(quant_split, teacher_archive,
                                      int8_archive):
    batch = _subset(quant_split)
    _, scores = load_clfd(teacher_archive).predict(batch)
    _, f16 = load_clfd(teacher_archive, precision="float16").predict(batch)
    _, i8 = load_clfd(int8_archive).predict(batch)
    assert np.abs(f16 - scores).max() <= np.abs(i8 - scores).max() + 1e-7


def test_quantized_scores_are_deterministic(quant_split, int8_archive):
    batch = _subset(quant_split)
    _, a = load_clfd(int8_archive).predict(batch)
    _, b = load_clfd(int8_archive).predict(batch)
    np.testing.assert_array_equal(a, b)


def test_on_the_fly_load_matches_v3_archive(quant_split, teacher_archive,
                                            int8_archive):
    """``load_clfd(precision="int8")`` and the persisted v3 archive are
    the same numeric path: identical scores, bit for bit."""
    batch = _subset(quant_split)
    _, live = load_clfd(teacher_archive, precision="int8").predict(batch)
    _, persisted = load_clfd(int8_archive).predict(batch)
    np.testing.assert_array_equal(live, persisted)


def test_return_embeddings_shape(quant_split, int8_archive):
    batch = _subset(quant_split, n=8)
    model = load_clfd(int8_archive)
    labels, scores, features = model.predict(batch,
                                             return_embeddings=True)
    assert features.shape == (len(batch), model.config.hidden_size)


def test_quantized_model_rejects_unquantized_meta(teacher_archive):
    meta, arrays = read_archive(teacher_archive)
    with pytest.raises(ValueError):
        QuantizedCLFD(meta, arrays)


@pytest.mark.parametrize("overrides", [
    {"inference": "centroid"},
], ids=["centroid"])
def test_variant_architectures_quantize_faithfully(quant_split, overrides):
    """Centroid inference round-trips through int8 quantization with
    scores tracking its own float model."""
    train, _ = quant_split
    config = CLFDConfig(**{**QUANT_CONFIG, **overrides,
                           "supcon_epochs": 1, "classifier_epochs": 3})
    model = CLFD(config).fit(train, rng=np.random.default_rng(11))
    batch = _subset(quant_split, n=48)
    labels, scores = model.predict(batch)

    meta, arrays = _persist_in_memory(model)
    qmeta, qarrays = quantize_arrays(meta, arrays, "int8")
    quantized = build_quantized(qmeta, qarrays)
    qlabels, qscores = quantized.predict(batch)
    np.testing.assert_allclose(qscores, scores, atol=2e-2)
    assert (qlabels == labels).mean() >= 0.9


def _persist_in_memory(model):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        return read_archive(save_clfd(model, tmp + "/m"))


@pytest.mark.parametrize("cell", ["lstm"])
def test_mean_pool_skips_dead_cells_bit_for_bit(cell):
    """The quantized stacks under mean pooling compute only live-row
    prefixes; every computed cell keeps the full-grid bits, skipped ones
    are zero, and the pooled encoding does not move."""
    import functools

    from repro.core.encoder import InferenceForward, RecurrentLayer, _Grid
    from repro.nn.fused import live_rows
    from repro.quant.runtime import QuantWeight

    rng = np.random.default_rng(0)
    hidden, feat = 16, 12

    def int8(rows, cols):
        return QuantWeight(
            "int8", rng.integers(-127, 128, (rows, cols)).astype(np.int8),
            rng.uniform(0.001, 0.01, cols).astype(np.float32))

    cells = []
    for layer in range(2):
        width = feat if layer == 0 else hidden
        cells.append({"w_x": int8(width, 4 * hidden),
                      "w_h": int8(hidden, 4 * hidden),
                      "bias": rng.normal(size=4 * hidden).astype(np.float32)})
    forward = InferenceForward([RecurrentLayer(
        functools.partial(c["w_x"].project, bias=c["bias"]), c["w_h"].dense())
        for c in cells], dtype=np.float32)
    lengths = np.array([9, 3, 9, 2, 1, 1, 1, 1])
    x = rng.normal(size=(len(lengths), 9, feat)).astype(np.float32)

    def stack_forward(x, live=None):
        grid = _Grid(forward, len(x), 9, feat)
        np.copyto(grid.emb, x.transpose(1, 0, 2))
        states = forward._states(grid, live)
        return states.transpose(1, 0, 2).copy(), grid

    full, grid = stack_forward(x)
    live = live_rows(lengths, 9)
    aware, _ = stack_forward(x, live)
    for t in range(9):
        rows = live[t] if t < len(live) else 0
        assert aware[:rows, t].tobytes() == full[:rows, t].tobytes(), t
        assert not aware[rows:, t].any(), t
    pooled = forward.encode_array(x, lengths)
    assert pooled.tobytes() == forward._mean_pool(
        grid, full.transpose(1, 0, 2), lengths).tobytes()


def test_int8_projection_casts_its_payload_once():
    from repro.nn.quant import quant_matmul_np, quantize_symmetric
    from repro.quant.runtime import QuantWeight

    rng = np.random.default_rng(5)
    q, s = quantize_symmetric(rng.normal(size=(6, 4)))
    bias = rng.normal(size=4).astype(np.float32)
    weight = QuantWeight("int8", q, s)
    x = rng.normal(size=(3, 6)).astype(np.float32)
    first = weight.project(x, bias)
    cast = weight._cast
    assert cast.dtype == np.float32
    second = weight.project(x, bias)
    assert weight._cast is cast
    expected = quant_matmul_np(x, q, s, bias)
    np.testing.assert_array_equal(first, expected)
    np.testing.assert_array_equal(second, expected)


@pytest.mark.parametrize("precision", [None, "int8"])
def test_empty_dataset_predicts_empty_arrays(teacher_archive, quant_split,
                                             precision):
    from repro.core import load_clfd

    model = load_clfd(teacher_archive, precision=precision)
    empty = quant_split[1][[]]
    labels, scores = model.predict(empty)
    assert labels.shape == scores.shape == (0,)
    _, _, embeddings = model.predict(empty, return_embeddings=True)
    assert embeddings.shape == (0, model.config.hidden_size)
    assert model.predict_proba(empty).shape == (0, 2)
