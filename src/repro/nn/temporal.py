"""Temporal convolution network blocks (paper §IV-C, Eq. 6, Figure 4).

A :class:`TemporalBlock` is the unit the paper describes: two causal,
weight-normalized 1-D convolutions with ReLU and spatial dropout, wrapped by
a residual connection.  Strides > 1 expand the receptive field (the paper
"changes the filter moving strides ... with zero padding"); the residual
branch is then downsampled with a strided 1×1 convolution so the shapes
match.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor
from .conv import CausalWeightNormConv1d, Conv1d
from .dropout import SpatialDropout1d
from .module import Module


class TemporalBlock(Module):
    """Residual causal-convolution block.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the ``(B, C, T)`` input/output.
    kernel_size:
        Temporal filter width ``k`` in Eq. (6).
    stride:
        Temporal stride; compresses the time axis by this factor.
    dilation:
        Dilation for the causal filters (doubles per level in a deep TCN).
    dropout:
        Spatial (channelwise) dropout probability after each convolution.
    """

    def __init__(self, in_channels: int, out_channels: int,
                 kernel_size: int = 3, stride: int = 1, dilation: int = 1,
                 dropout: float = 0.1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = CausalWeightNormConv1d(
            in_channels, out_channels, kernel_size, stride=stride,
            dilation=dilation, rng=rng)
        self.drop1 = SpatialDropout1d(dropout, rng=rng)
        self.conv2 = CausalWeightNormConv1d(
            out_channels, out_channels, kernel_size, stride=1,
            dilation=dilation, rng=rng)
        self.drop2 = SpatialDropout1d(dropout, rng=rng)
        if in_channels != out_channels or stride != 1:
            self.downsample = Conv1d(in_channels, out_channels, 1,
                                     stride=stride, rng=rng)
        else:
            self.downsample = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.drop1(self.conv1(x).relu())
        out = self.drop2(self.conv2(out).relu())
        residual = x if self.downsample is None else self.downsample(x)
        return (out + residual).relu()
