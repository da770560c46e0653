"""Relational graph convolution over the relation-temporal graph (§IV-B).

Applies Kipf's first-order GCN (Eq. 2) to every relational graph G_R in
G_RT.  The adjacency is produced by one of the three relation-aware
strategies; for the uniform and weight strategies a single ``(N, N)``
adjacency is shared across time-steps (broadcast through the batched
matmul), while the time-sensitive strategy supplies a ``(T, N, N)`` stack.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import RelationStrategy
from ..nn import GraphConv, Linear
from ..nn.module import Module
from ..tensor import Tensor, ensure_tensor
from ..tensor.fused import (fused_enabled, fused_kernels,
                             gcn_propagate_fused)


class RelationalGraphConvolution(Module):
    """One relational-convolution step of an RT-GCN layer.

    ``forward(x)`` with ``x`` of shape ``(T, N, D)`` returns ``(T, N, F)``
    where ``F`` is the number of relational convolution filters.

    A linear residual path around the graph convolution (as in the ST-GCN
    blocks of Yan et al., the architecture §IV-C builds on) lets each
    stock keep its *own* temporal signal undiluted while the propagation
    term adds neighbor information on top; without it the degree
    normalization shrinks the self-contribution of well-connected stocks.
    """

    def __init__(self, strategy: RelationStrategy, in_features: int,
                 out_features: int, residual: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.strategy = strategy
        self.conv = GraphConv(in_features, out_features, rng=rng)
        self.skip = Linear(in_features, out_features, bias=False,
                           rng=rng) if residual else None
        if residual:
            # Start the block near the identity (skip) function: a small
            # propagation term lets optimization *grow* relational usage
            # where neighbors carry signal instead of having to suppress
            # initial propagation noise — the zero-init trick of modern
            # residual architectures.
            self.conv.weight.data *= 0.1
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, D) input, got {x.shape}")
        adjacency = self.strategy(x) if self.strategy.time_varying \
            else self.strategy()
        # An input that requires grad and also feeds a time-varying
        # adjacency (layers >= 2 of RT-GCN (T)) gets the Eq. 5 chain's
        # shares of its gradient after any fused node's, where the composed
        # tape adds them first: that layer runs the composed chain whole.
        if fused_enabled() and not (self.strategy.time_varying
                                    and x.requires_grad):
            # Propagation, bias, skip path and ReLU as one tape node, summed
            # in the composed order below.
            x, adjacency = self.conv._checked(x, adjacency)
            return gcn_propagate_fused(
                x, adjacency, self.conv.weight, self.conv.bias, "relu",
                None if self.skip is None else self.skip.weight)
        with fused_kernels(False):
            propagated = self.conv(x, adjacency)
            if self.skip is not None:
                propagated = propagated + self.skip(x)
            return propagated.relu()

    def __repr__(self) -> str:
        return (f"RelationalGraphConvolution("
                f"strategy={type(self.strategy).__name__}, "
                f"in={self.in_features}, out={self.out_features})")
