"""Recurrent layers (LSTM, GRU) used by the sequential baselines.

The paper's comparison set (Rank_LSTM, RSR, A-LSTM, FinGAT-style GRU models)
is recurrent; these cells implement the standard formulations with combined
gate matrices.  Inputs follow the batch-first convention ``(B, T, D)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import (Tensor, concat, ensure_tensor, linear, sigmoid, stack,
                      tanh)
from ..tensor.fused import (fused_enabled, gru_cell_fused, lstm_cell_fused,
                           lstm_layer_fused)
from . import init
from .module import Module, Parameter
from .random import get_rng


class LSTMCell(Module):
    """A single long short-term memory cell (Hochreiter & Schmidhuber)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        gen = rng if rng is not None else get_rng()
        self.weight_ih = Parameter(np.empty((4 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.empty((4 * hidden_size, hidden_size)))
        self.bias = Parameter(np.zeros(4 * hidden_size))
        init.xavier_uniform_(self.weight_ih, rng=gen)
        init.xavier_uniform_(self.weight_hh, rng=gen)
        # Bias the forget gate toward remembering, a standard trick that
        # stabilizes early training.
        self.bias.data[hidden_size:2 * hidden_size] = 1.0

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]
                ) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        if fused_enabled():
            return lstm_cell_fused(x, h_prev, c_prev, self.weight_ih,
                                   self.weight_hh, self.bias,
                                   self.hidden_size)
        return self._composed_step(x, h_prev, c_prev,
                                   self.weight_ih.swapaxes(-1, -2),
                                   self.weight_hh.swapaxes(-1, -2))

    def _composed_step(self, x: Tensor, h_prev: Tensor, c_prev: Tensor,
                       w_ih_t: Tensor, w_hh_t: Tensor
                       ) -> Tuple[Tensor, Tensor]:
        """One composed-op step given the transposed weights."""
        gates = (ensure_tensor(x) @ w_ih_t
                 + ensure_tensor(h_prev) @ w_hh_t + self.bias)
        H = self.hidden_size
        i = sigmoid(gates[..., 0 * H:1 * H])
        f = sigmoid(gates[..., 1 * H:2 * H])
        g = tanh(gates[..., 2 * H:3 * H])
        o = sigmoid(gates[..., 3 * H:4 * H])
        c = f * c_prev + i * g
        h = o * tanh(c)
        return h, c

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class LSTM(Module):
    """Multi-step (optionally stacked) LSTM over ``(B, T, D)`` input.

    Returns the per-step hidden states ``(B, T, H)`` and the final
    ``(h, c)`` of the last layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        gen = rng if rng is not None else get_rng()
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            self.add_module(f"cell{layer}",
                            LSTMCell(in_size, hidden_size, rng=gen))

    def _cell(self, layer: int) -> LSTMCell:
        return self._modules[f"cell{layer}"]

    def _initial_state(self, layer: int, batch: int,
                       state: Optional[Tuple[Tensor, Tensor]]
                       ) -> Tuple[Tensor, Tensor]:
        # An explicit state seeds a single-layer LSTM only.
        if state is not None and layer == 0 and self.num_layers == 1:
            return state
        return self._cell(layer).initial_state(batch)

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (B, T, D) input, got {x.shape}")
        batch, steps, _ = x.shape
        if fused_enabled():
            # One tape node per layer for the whole sequence.
            outputs = x
            for layer in range(self.num_layers):
                cell = self._cell(layer)
                h, c = self._initial_state(layer, batch, state)
                outputs, h, c = lstm_layer_fused(
                    outputs, h, c, cell.weight_ih, cell.weight_hh,
                    cell.bias, self.hidden_size)
            return outputs, (h, c)
        layer_input = [x[:, t, :] for t in range(steps)]
        for layer in range(self.num_layers):
            cell = self._cell(layer)
            h, c = self._initial_state(layer, batch, state)
            # Transpose each weight once per sequence, so every step's
            # weight gradient reaches it through one node, in the
            # reverse-time order the fused layer accumulates in
            # (bitwise-equal paths under float64).
            w_ih_t = cell.weight_ih.swapaxes(-1, -2)
            w_hh_t = cell.weight_hh.swapaxes(-1, -2)
            outputs = []
            for step_x in layer_input:
                h, c = cell._composed_step(step_x, h, c, w_ih_t, w_hh_t)
                outputs.append(h)
            layer_input = outputs
        return stack(layer_input, axis=1), (h, c)


class GRUCell(Module):
    """A gated recurrent unit cell (Cho et al., 2014)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        gen = rng if rng is not None else get_rng()
        self.weight_ih = Parameter(np.empty((3 * hidden_size, input_size)))
        self.weight_hh = Parameter(np.empty((3 * hidden_size, hidden_size)))
        self.bias_ih = Parameter(np.zeros(3 * hidden_size))
        self.bias_hh = Parameter(np.zeros(3 * hidden_size))
        init.xavier_uniform_(self.weight_ih, rng=gen)
        init.xavier_uniform_(self.weight_hh, rng=gen)

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        if fused_enabled():
            return gru_cell_fused(x, h_prev, self.weight_ih, self.weight_hh,
                                  self.bias_ih, self.bias_hh,
                                  self.hidden_size)
        H = self.hidden_size
        gi = linear(x, self.weight_ih) + self.bias_ih
        gh = linear(h_prev, self.weight_hh) + self.bias_hh
        r = sigmoid(gi[..., 0 * H:1 * H] + gh[..., 0 * H:1 * H])
        z = sigmoid(gi[..., 1 * H:2 * H] + gh[..., 1 * H:2 * H])
        n = tanh(gi[..., 2 * H:3 * H] + r * gh[..., 2 * H:3 * H])
        return (1.0 - z) * n + z * h_prev

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size)))


class GRU(Module):
    """Multi-step GRU over ``(B, T, D)`` input (used by the FinGAT baseline)."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        gen = rng if rng is not None else get_rng()
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            self.add_module(f"cell{layer}",
                            GRUCell(in_size, hidden_size, rng=gen))

    def forward(self, x: Tensor, h0: Optional[Tensor] = None
                ) -> Tuple[Tensor, Tensor]:
        if x.ndim != 3:
            raise ValueError(f"GRU expects (B, T, D) input, got {x.shape}")
        batch, steps, _ = x.shape
        layer_input = [x[:, t, :] for t in range(steps)]
        h = None
        for layer in range(self.num_layers):
            cell: GRUCell = self._modules[f"cell{layer}"]
            h = h0 if (h0 is not None and layer == 0 and self.num_layers == 1) \
                else cell.initial_state(batch)
            outputs = []
            for step_x in layer_input:
                h = cell(step_x, h)
                outputs.append(h)
            layer_input = outputs
        return stack(layer_input, axis=1), h
