"""Long Short-Term Memory layers (batch-first, multi-layer).

The paper's session encoders are two-layer LSTMs whose final-layer hidden
states are averaged to produce a session representation; this module
implements the recurrent substrate for that.

Two execution paths are provided, selected by ``LSTM(fused=)``.  Every
model trains on the fused default; the reference path is set only by
the tests and benchmarks that check the fused kernel against it:

* **fused** — each layer's whole recurrence, forward and hand-derived
  backward, runs inside one sequence kernel
  (:func:`~repro.nn.fused.fused_lstm_sequence`).
* **reference** — :class:`LSTMCell` steps composed from autograd ops
  (using :func:`~repro.nn.tensor.split` for the gate slices), kept as
  the oracle and speed baseline of the fused kernel.
"""

from __future__ import annotations

import numpy as np

from . import init
from .fused import fused_lstm_sequence
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype, split, stack

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM cell with fused gate projection.

    Gate order in the fused weight matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to 1, the standard trick for
    gradient flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Parameter(init.xavier_uniform((input_size, 4 * hidden_size), rng))
        self.w_h = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)],
                axis=1,
            )
        )
        bias = np.zeros(4 * hidden_size, dtype=get_default_dtype())
        bias[hidden_size: 2 * hidden_size] = 1.0  # forget-gate bias
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """One step: ``x`` is (batch, input_size); returns new (h, c)."""
        h_prev, c_prev = state
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        gi, gf, gg, go = split(gates, self.hidden_size, axis=1)
        i, f, g, o = gi.sigmoid(), gf.sigmoid(), gg.tanh(), go.sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size),
                         dtype=self.w_x.data.dtype)
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-layer batch-first LSTM.

    Parameters
    ----------
    input_size: size of each input vector.
    hidden_size: size of the hidden state (same for all layers, matching
        the paper's "two hidden layers with the same dimensions").
    num_layers: number of stacked LSTM layers.
    fused: run each layer through the fused sequence kernel instead of
        a loop of composed :class:`LSTMCell` steps.
    """

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
            LSTMCell(input_size if layer == 0 else hidden_size, hidden_size,
                     rng)
            for layer in range(num_layers)
        ]

    def forward(self, x: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Run the full sequence.

        ``x`` is (batch, time, input_size). Returns ``(outputs, (h_n, c_n))``
        where ``outputs`` is (batch, time, hidden_size) from the last layer
        and ``h_n``/``c_n`` are the final states of the last layer.
        """
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (batch, time, features), got {x.shape}")
        if self.fused:
            return self._forward_fused(x)
        batch, time, _ = x.shape
        layer_input = [x[:, t, :] for t in range(time)]
        h = c = None
        for cell in self.cells:
            h, c = cell.initial_state(batch)
            outputs = []
            for step in layer_input:
                h, c = cell(step, (h, c))
                outputs.append(h)
            layer_input = outputs
        return stack(layer_input, axis=1), (h, c)

    def _forward_fused(self, x: Tensor) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Fused path: the whole recurrence (forward and backward) of
        each layer runs inside a single sequence kernel — a handful of
        graph nodes per layer instead of ~15 per timestep."""
        batch, _, _ = x.shape
        layer_input = x
        h = c = None
        for cell in self.cells:
            h0, c0 = cell.initial_state(batch)
            layer_input, h, c = fused_lstm_sequence(
                layer_input, h0, c0, cell.w_x, cell.w_h, cell.bias)
        return layer_input, (h, c)

    def mean_pool(self, x: Tensor, lengths: np.ndarray | None = None) -> Tensor:
        """Encode sessions by averaging final-layer hidden states over time.

        ``lengths`` marks the true (unpadded) length of each sequence; when
        provided, padding positions are excluded from the average.
        """
        outputs, _ = self.forward(x)
        if lengths is None:
            return outputs.mean(axis=1)
        dtype = outputs.data.dtype
        lengths = np.asarray(lengths, dtype=dtype)
        batch, time, _ = outputs.shape
        mask = (np.arange(time)[None, :] < lengths[:, None]).astype(dtype)
        masked = outputs * Tensor(mask[:, :, None])
        return masked.sum(axis=1) / Tensor(np.maximum(lengths, 1.0)[:, None])
