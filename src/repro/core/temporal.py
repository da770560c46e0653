"""Temporal convolution step of an RT-GCN layer (§IV-C).

Treats the stocks as the batch axis and runs the causal TCN block over the
time axis, compressing ``T`` steps into ``H`` (via stride) while mixing
channels — "an output at time t is convolved only with elements from time t
and earlier" (Figure 4), so no future leaks into any representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import TemporalBlock
from ..nn.module import Module
from ..tensor import Tensor, ensure_tensor
from ..tensor.fused import (conv1d_fusable, fused_enabled,
                            temporal_block_fused)


class TemporalConvolution(Module):
    """Causal temporal convolution over ``(T, N, C)`` node features.

    Parameters
    ----------
    in_channels, out_channels:
        Feature width before/after the block.
    kernel_size, stride, dilation:
        The Eq. (6) filter; stride > 1 compresses the temporal dimension
        ("we change the filter moving strides to expand the receptive
        field").
    dropout:
        Spatial dropout applied inside the residual block.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int = 3, stride: int = 1, dilation: int = 1,
                 dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.block = TemporalBlock(in_channels, out_channels,
                                   kernel_size=kernel_size, stride=stride,
                                   dilation=dilation, dropout=dropout,
                                   rng=rng)
        self.in_channels = in_channels
        self.out_channels = out_channels

    def forward(self, x: Tensor) -> Tensor:
        """``(T, N, C_in) -> (H, N, C_out)`` with ``H = ceil(T / stride)``.

        While the fused kernels are enabled the whole block, both
        transposes included, is one tape node
        (:func:`repro.tensor.fused.temporal_block_fused`).
        """
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, C) input, got {x.shape}")
        if fused_enabled() and self._fusable(x.shape[1]):
            return self._fused_forward(x)
        # (T, N, C) -> (N, C, T): stocks become the batch for the 1-D conv.
        as_batch = x.transpose(1, 2, 0)
        out = self.block(as_batch)
        # (N, C_out, H) -> (H, N, C_out)
        return out.transpose(2, 0, 1)

    def _fusable(self, stocks: int) -> bool:
        block = self.block
        return all(conv is None or conv1d_fusable(stocks, conv.in_channels,
                                                  conv.kernel_size)
                   for conv in (block.conv1, block.conv2, block.downsample))

    def _fused_forward(self, x: Tensor) -> Tensor:
        block = self.block
        down = block.downsample
        # Spatial dropout masks one whole (stock, channel) series; both are
        # drawn in the composed forward's order.
        mask_shape = (x.shape[1], block.out_channels, 1)
        return temporal_block_fused(
            x, block.conv1._weight(), block.conv1.bias,
            block.conv2._weight(), block.conv2.bias,
            block.drop1.draw_mask(mask_shape),
            block.drop2.draw_mask(mask_shape),
            None if down is None else down.weight,
            None if down is None else down.bias,
            stride=block.stride, dilation=block.conv1.dilation)

    def __repr__(self) -> str:
        return (f"TemporalConvolution(in={self.in_channels}, "
                f"out={self.out_channels})")
