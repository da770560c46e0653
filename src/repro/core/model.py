"""RT-GCN: the paper's primary contribution (§IV, Figure 3).

A stack of relation-temporal graph convolution layers — each a relational
graph convolution (Eq. 2 with one of the three relation-aware strategies)
followed by a causal temporal convolution (Eq. 6) — then average pooling
over the remaining temporal dimension and a fully connected scorer.  Given
the window features ``X ∈ R^{T×N×D}`` of every stock, the model emits one
ranking score per stock; higher score = higher expected next-day return.

The Table VII ablations are the same class with one side disabled:
``RTGCN.r_conv(...)`` keeps only the relational convolution, and
``RTGCN.t_conv(...)`` keeps only the temporal convolution.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph import RelationMatrix, make_strategy
from ..nn import Linear
from ..nn.module import Module
from ..tensor import Tensor, ensure_tensor
from .relational import RelationalGraphConvolution
from .temporal import TemporalConvolution

#: the paper's three RT-GCN variants (Table IV names) → relation strategy.
#: The baseline registry builds its RT-GCN specs from this table; the CLI
#: and :mod:`repro.serve` read it to rebuild a checkpointed RT-GCN
#: without loading the comparison models.
RTGCN_VARIANTS: Dict[str, str] = {
    "RT-GCN (U)": "uniform",
    "RT-GCN (W)": "weight",
    "RT-GCN (T)": "time",
}


class RTGCNLayer(Module):
    """One relation-temporal convolution layer.

    Input ``(T, N, C_in)`` flows through the relational convolution (when
    enabled) and then the temporal convolution (when enabled), producing
    ``(H, N, C_out)``.
    """

    def __init__(self, relations: RelationMatrix, in_channels: int,
                 out_channels: int, strategy: str = "time",
                 temporal_kernel: int = 3, temporal_stride: int = 1,
                 dropout: float = 0.1, use_relational: bool = True,
                 use_temporal: bool = True, graph_mode: str = "auto",
                 density_threshold: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not use_relational and not use_temporal:
            raise ValueError("layer must keep at least one of the relational "
                             "and temporal convolutions")
        self.use_relational = use_relational
        self.use_temporal = use_temporal
        mid = out_channels if use_relational else in_channels
        if use_relational:
            self.relational = RelationalGraphConvolution(
                make_strategy(strategy, relations, rng=rng,
                              graph_mode=graph_mode,
                              density_threshold=density_threshold),
                in_channels, out_channels, rng=rng)
        else:
            self.relational = None
        if use_temporal:
            self.temporal = TemporalConvolution(
                mid, out_channels, kernel_size=temporal_kernel,
                stride=temporal_stride, dropout=dropout, rng=rng)
        else:
            self.temporal = None

    def forward(self, x: Tensor) -> Tensor:
        if self.relational is not None:
            x = self.relational(x)
        if self.temporal is not None:
            x = self.temporal(x)
        return x


class RTGCN(Module):
    """Relation-temporal graph convolutional network for stock ranking.

    Parameters
    ----------
    relations:
        The multi-hot relation matrix 𝓐 of the stock universe.
    num_features:
        Node feature dimension ``D`` (close + moving averages; Table VIII).
    strategy:
        Relation-aware strategy: ``"uniform"``/``"weight"``/``"time"``
        (paper's U/W/T variants).
    relational_filters:
        ``F``, the width of the relational convolution.
    temporal_kernel, temporal_stride:
        The causal filter of Eq. (6); stride > 1 compresses time.
    num_layers:
        Number of stacked RT-GCN layers (the paper uses 1: "too many layers
        could cause overfitting", §V-B-4).
    dropout:
        Spatial dropout inside each temporal block.
    use_relational / use_temporal:
        Ablation switches (Table VII's R-Conv / T-Conv).
    graph_mode / density_threshold:
        Dense/sparse dispatch of the relational propagation
        (``"auto"``/``"dense"``/``"sparse"``; see ``docs/performance.md``).
    """

    def __init__(self, relations: RelationMatrix, num_features: int = 4,
                 strategy: str = "time", relational_filters: int = 32,
                 temporal_kernel: int = 3, temporal_stride: int = 1,
                 num_layers: int = 1, dropout: float = 0.05,
                 use_relational: bool = True, use_temporal: bool = True,
                 graph_mode: str = "auto",
                 density_threshold: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.relations = relations
        self.num_features = num_features
        self.strategy_name = strategy
        self.num_layers = num_layers
        width = relational_filters
        in_channels = num_features
        for index in range(num_layers):
            layer = RTGCNLayer(relations, in_channels, width,
                               strategy=strategy,
                               temporal_kernel=temporal_kernel,
                               temporal_stride=temporal_stride,
                               dropout=dropout,
                               use_relational=use_relational,
                               use_temporal=use_temporal,
                               graph_mode=graph_mode,
                               density_threshold=density_threshold, rng=rng)
            self.add_module(f"layer{index}", layer)
            # Whichever convolutions a layer keeps, its output width is
            # `relational_filters`.
            in_channels = width
        self.scorer = Linear(width, 1, rng=rng)

    # ------------------------------------------------------------------
    # ablation constructors (Table VII)
    # ------------------------------------------------------------------
    @classmethod
    def r_conv(cls, relations: RelationMatrix, **kwargs) -> "RTGCN":
        """R-Conv: relational convolution only, uniform strategy (§V-D-2)."""
        kwargs.setdefault("strategy", "uniform")
        return cls(relations, use_relational=True, use_temporal=False,
                   **kwargs)

    @classmethod
    def t_conv(cls, relations: RelationMatrix, **kwargs) -> "RTGCN":
        """T-Conv: temporal convolution only (§V-D-2)."""
        return cls(relations, use_relational=False, use_temporal=True,
                   **kwargs)

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        """Score every stock from window features ``(T, N, D)`` → ``(N,)``."""
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, D) features, got {x.shape}")
        if x.shape[2] != self.num_features:
            raise ValueError(f"model built for D={self.num_features} "
                             f"features, got {x.shape[2]}")
        for index in range(self.num_layers):
            x = self._modules[f"layer{index}"](x)
        pooled = x.mean(axis=0)          # average pooling over time: (N, F)
        return self.scorer(pooled).squeeze(-1)

    def __repr__(self) -> str:
        return (f"RTGCN(strategy={self.strategy_name!r}, "
                f"layers={self.num_layers}, "
                f"params={self.num_parameters()})")
