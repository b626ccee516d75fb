"""Inference skips dead cells of a padded batch without changing a bit.

Given ``lengths``, the NumPy inference forward's LSTM stack
(``InferenceForward``, over ``nn.fused.lstm_recurrence``) stops at the
longest row and runs each step's elementwise work on the live-row prefix
only (``nn.fused.live_rows``).
Every cell they do compute must carry the full-grid bits of the Tensor
kernels, every cell they skip must be exactly zero, and the masked
mean-pool must not move.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.encoder import InferenceForward, _Grid, recurrent_layers
from repro.nn import Tensor
from repro.nn.fused import live_rows

TIME = 7
# Rows: full length, a short row mid-batch, another full-length row,
# a short one, then pad rows of length 1 at the tail.
MIXED = np.array([TIME, 3, TIME, 2, 1, 1, 1, 1])
# The longest row ends before the last time slot.
SHORT = np.array([5, 2, 5, 1, 1])


def test_live_rows_is_the_prefix_up_to_the_last_live_row():
    assert live_rows([4, 1, 6, 2, 1, 1], time=8) == (6, 4, 3, 3, 3, 3)
    assert live_rows(MIXED, TIME) == (8, 4, 3, 3, 3, 3, 3)
    assert live_rows([9, 2], time=4) == (2, 2, 1, 1)    # clipped to time
    assert live_rows(np.array([2.0, 3.0]), time=4) == (2, 2, 2)
    assert live_rows([], time=4) == ()


def _model(layers, dtype, hidden):
    with nn.default_dtype(dtype):
        return nn.LSTM(6, hidden, np.random.default_rng(3), num_layers=layers)


def _input(batch, dtype):
    return Tensor(np.random.default_rng(4).normal(size=(batch, TIME, 6)),
                  dtype=dtype)


def _inference_states(forward, x, lengths=None):
    """The top layer's per-step states of the NumPy inference stack,
    batch-major; ``lengths`` skips dead cells."""
    batch, time, feat = x.shape
    grid = _Grid(forward, batch, time, feat)
    np.copyto(grid.emb, x.transpose(1, 0, 2))
    live = None if lengths is None else live_rows(lengths, time)
    return forward._states(grid, live).transpose(1, 0, 2)


def _inference_forward(model):
    return InferenceForward(recurrent_layers(model),
                            dtype=model.cells[0].w_h.data.dtype)


@pytest.mark.parametrize("lengths", [MIXED, SHORT], ids=["mixed", "short"])
@pytest.mark.parametrize("hidden", [5, 50])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm"])
def test_length_aware_forward_matches_full_grid(cell, layers, dtype, hidden,
                                                lengths):
    model = _model(layers, dtype, hidden)
    x = _input(len(lengths), dtype)
    forward = _inference_forward(model)
    with nn.no_grad():
        full = model(x)[0].data
        aware = _inference_states(forward, x.data, lengths)
        pooled = forward.encode_array(x.data, lengths)
    reference = model.mean_pool(x, lengths).data   # grad on: full grid
    live = live_rows(lengths, TIME)
    assert aware.dtype == full.dtype == dtype
    for t in range(TIME):
        rows = live[t] if t < len(live) else 0
        assert aware[:rows, t].tobytes() == full[:rows, t].tobytes(), t
        assert not aware[rows:, t].any(), t
    assert pooled.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cell", ["lstm"])
def test_lengths_are_ignored_while_grad_is_on(cell):
    """Training (grad on) runs the Tensor kernels over the full grid;
    without lengths the NumPy stack runs that same grid, bit for bit."""
    model = _model(2, np.float64, 5)
    x = _input(len(MIXED), np.float64)
    full = model(x)[0].data
    aware = _inference_states(_inference_forward(model), x.data)
    assert aware.tobytes() == full.tobytes()
