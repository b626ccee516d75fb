"""Inference skips dead cells of a padded batch without changing a bit.

With grad disabled and ``lengths`` given, the fused LSTM/GRU kernels
stop at the longest row and run each step's elementwise work on the
live-row prefix only (``nn.fused.live_rows``).  Every cell they do
compute must carry the full-grid bits, every cell they skip must be
exactly zero, and the masked mean-pool must not move.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.encoder import SessionEncoder
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


def _model(cell, layers, dtype, hidden):
    rng = np.random.default_rng(3)
    with nn.default_dtype(dtype):
        if cell == "lstm":
            return nn.LSTM(6, hidden, rng, num_layers=layers)
        return nn.GRU(6, hidden, rng, num_layers=layers)


def _input(batch, dtype):
    return Tensor(np.random.default_rng(4).normal(size=(batch, TIME, 6)),
                  dtype=dtype)


@pytest.mark.parametrize("lengths", [MIXED, SHORT], ids=["mixed", "short"])
@pytest.mark.parametrize("hidden", [5, 50])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_length_aware_forward_matches_full_grid(cell, layers, dtype, hidden,
                                                lengths):
    model = _model(cell, layers, dtype, hidden)
    x = _input(len(lengths), dtype)
    with nn.no_grad():
        full = model(x)[0].data
        aware = model(x, lengths)[0].data
        pooled = model.mean_pool(x, lengths).data
    reference = model.mean_pool(x, lengths).data   # grad on: full grid
    live = live_rows(lengths, TIME)
    assert aware.dtype == full.dtype == dtype
    for t in range(TIME):
        rows = live[t] if t < len(live) else 0
        assert aware[:rows, t].tobytes() == full[:rows, t].tobytes(), t
        assert not aware[rows:, t].any(), t
    assert pooled.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_lengths_are_ignored_while_grad_is_on(cell):
    model = _model(cell, 2, np.float64, 5)
    x = _input(len(MIXED), np.float64)
    full, aware = model(x)[0].data, model(x, MIXED)[0].data
    assert aware.tobytes() == full.tobytes()


def test_live_rows_under_grad_are_refused():
    lstm = nn.LSTM(6, 5, np.random.default_rng(0), num_layers=1)
    cell = lstm.cells[0]
    x = _input(2, np.float64)
    h0, c0 = cell.initial_state(2)
    with pytest.raises(ValueError, match="no_grad"):
        nn.fused_lstm_sequence(x, h0, c0, cell.w_x, cell.w_h, cell.bias,
                               live=(2, 1))


@pytest.mark.parametrize("cell,pooling", [("bilstm", "mean"),
                                          ("lstm", "attention"),
                                          ("bilstm", "attention")])
def test_bilstm_and_attention_encoders_keep_the_full_grid(cell, pooling):
    """The reverse pass reads padding first and attention pooling sees
    every step, so these encoders score at inference exactly as the
    full-grid training forward does."""
    encoder = SessionEncoder(6, 5, np.random.default_rng(5), cell=cell,
                             pooling=pooling)
    x = np.random.default_rng(6).normal(size=(len(MIXED), TIME, 6))
    inference = encoder.encode_numpy(x, MIXED)
    training = encoder(x, MIXED).data
    assert inference.tobytes() == training.tobytes()
