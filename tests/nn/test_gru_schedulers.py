"""Tests for the GRU layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# ----------------------------------------------------------------------
# GRU
# ----------------------------------------------------------------------
def test_gru_shapes(rng):
    gru = nn.GRU(6, 9, rng, num_layers=2)
    outputs, h = gru(Tensor(rng.normal(size=(4, 7, 6))))
    assert outputs.shape == (4, 7, 9)
    assert h.shape == (4, 9)


def test_gru_final_state_matches_last_output(rng):
    gru = nn.GRU(3, 5, rng, num_layers=1)
    outputs, h = gru(Tensor(rng.normal(size=(2, 4, 3))))
    np.testing.assert_allclose(outputs.data[:, -1, :], h.data)


def test_gru_validation(rng):
    with pytest.raises(ValueError):
        nn.GRU(3, 5, rng, num_layers=0)
    gru = nn.GRU(3, 5, rng)
    with pytest.raises(ValueError):
        gru(Tensor(np.zeros((2, 3))))


def test_gru_mean_pool_masks_padding(rng):
    gru = nn.GRU(3, 5, rng)
    x = rng.normal(size=(1, 6, 3))
    altered = x.copy()
    altered[0, 4:, :] = 77.0
    lengths = np.array([4])
    np.testing.assert_allclose(
        gru.mean_pool(Tensor(x), lengths).data,
        gru.mean_pool(Tensor(altered), lengths).data,
    )


def test_gru_cell_gradcheck(rng):
    cell = nn.GRUCell(3, 4, rng)
    x = Tensor(rng.normal(scale=0.5, size=(2, 3)), requires_grad=True)

    def fn():
        h = cell(x, cell.initial_state(2))
        return (h * h).sum()

    check_gradients(fn, [x] + cell.parameters(), atol=1e-4)


def test_gru_sequence_gradcheck(rng):
    gru = nn.GRU(3, 4, rng, num_layers=2)
    x = Tensor(rng.normal(scale=0.5, size=(2, 4, 3)), requires_grad=True)
    check_gradients(lambda: (gru.mean_pool(x) ** 2).sum(),
                    [x] + gru.parameters(), atol=1e-4)


def test_gru_fewer_parameters_than_lstm(rng):
    gru = nn.GRU(8, 16, rng)
    lstm = nn.LSTM(8, 16, np.random.default_rng(0))
    assert sum(p.size for p in gru.parameters()) < \
        sum(p.size for p in lstm.parameters())


def test_gru_trains_on_toy_task(rng):
    gru = nn.GRU(4, 8, rng, num_layers=1)
    head = nn.Linear(8, 2, rng)
    opt = nn.Adam(gru.parameters() + head.parameters(), lr=0.02)
    x = rng.normal(size=(16, 5, 4))
    labels = (x[:, 0, 0] > 0).astype(int)
    for _ in range(60):
        opt.zero_grad()
        loss = nn.cross_entropy(head(gru.mean_pool(Tensor(x))), labels)
        loss.backward()
        opt.step()
    preds = np.argmax(head(gru.mean_pool(Tensor(x))).data, axis=1)
    assert (preds == labels).mean() >= 0.9

