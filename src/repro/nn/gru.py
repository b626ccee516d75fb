"""Gated Recurrent Unit layers — an alternative session encoder.

The paper standardises on LSTM encoders; a GRU at the same width is a
natural ablation (fewer parameters, similar capacity).  The interface
mirrors :class:`repro.nn.LSTM` including masked mean-pooling and the
``fused`` flag: the fused path runs each layer's recurrence inside one
hand-derived sequence kernel (:func:`~repro.nn.fused.fused_gru_sequence`);
the reference path composes :class:`GRUCell` steps from autograd ops.
"""

from __future__ import annotations

import numpy as np

from . import init
from .fused import fused_gru_sequence
from .module import Module, Parameter
from .tensor import Tensor, split, stack

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single GRU cell with fused gate projections.

    Gate order in the fused reset/update weights is ``[reset, update]``;
    the candidate projection is kept separate because it sees the
    reset-scaled hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform((input_size, 2 * hidden_size), rng))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(2)],
                axis=1,
            )
        )
        self.bias = Parameter(init.zeros(2 * hidden_size))
        self.w_xc = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hc = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.bias_c = Parameter(init.zeros(hidden_size))

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """One step: returns the new hidden state."""
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        gr, gz = split(gates, self.hidden_size, axis=1)
        r, z = gr.sigmoid(), gz.sigmoid()
        candidate = (x @ self.w_xc + (r * h_prev) @ self.w_hc + self.bias_c).tanh()
        return z * h_prev + (1.0 - z) * candidate

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size),
                               dtype=self.w_x.data.dtype))


class GRU(Module):
    """Multi-layer batch-first GRU with LSTM-compatible interface."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator, num_layers: int = 2,
                 fused: bool = True):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.fused = fused
        self.cells = [
            GRUCell(input_size if layer == 0 else hidden_size, hidden_size,
                    rng)
            for layer in range(num_layers)
        ]

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Run the sequence; returns (outputs, final hidden state)."""
        if x.ndim != 3:
            raise ValueError(f"GRU expects (batch, time, features), got {x.shape}")
        if self.fused:
            return self._forward_fused(x)
        batch, time, _ = x.shape
        layer_input = [x[:, t, :] for t in range(time)]
        h = None
        for cell in self.cells:
            h = cell.initial_state(batch)
            outputs = []
            for step in layer_input:
                h = cell(step, h)
                outputs.append(h)
            layer_input = outputs
        return stack(layer_input, axis=1), h

    def _forward_fused(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Fused path: the whole recurrence of each layer runs inside a
        single sequence kernel."""
        batch, _, _ = x.shape
        layer_input = x
        h = None
        for cell in self.cells:
            h0 = cell.initial_state(batch)
            layer_input, h = fused_gru_sequence(
                layer_input, h0, cell.w_x, cell.w_h, cell.bias,
                cell.w_xc, cell.w_hc, cell.bias_c)
        return layer_input, h

    def mean_pool(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Masked mean over the final layer's hidden states."""
        outputs, _ = self.forward(x)
        if lengths is None:
            return outputs.mean(axis=1)
        dtype = outputs.data.dtype
        lengths = np.asarray(lengths, dtype=dtype)
        batch, time, _ = outputs.shape
        mask = (np.arange(time)[None, :] < lengths[:, None]).astype(dtype)
        masked = outputs * Tensor(mask[:, :, None])
        return masked.sum(axis=1) / Tensor(np.maximum(lengths, 1.0)[:, None])
