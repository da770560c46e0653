"""STHAN-SR: spatiotemporal hypergraph attention for stock ranking [10].

Sawhney et al. (AAAI 2021) model relations as a *hypergraph* — each
relation type induces a hyperedge joining all stocks that share it — and
capture temporal patterns with a Hawkes-style attention whose influence
decays exponentially with distance from the prediction day.  This is the
other published two-step ranker the paper compares against in Table V.

Implementation
--------------
1. A GRU encodes each stock's window; Hawkes attention pools the hidden
   states: ``w_t ∝ softmax(vᵀ tanh(W h_t)) · exp(−δ (T−t))`` with a
   learnable excitation-decay δ ≥ 0.
2. Hypergraph convolution à la HGNN:
   ``Z' = D_v^{-1/2} H W_e D_e^{-1} Hᵀ D_v^{-1/2} Z Θ`` with a learnable
   diagonal hyperedge-weight ``W_e`` (the attention over hyperedges).
3. A linear head scores the node embeddings; trained with the same
   regression + pairwise-ranking objective.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import RelationMatrix
from ..nn import GRU, Linear
from ..nn.module import Module, Parameter
from ..nn import init
from ..nn.random import get_rng
from ..tensor import Tensor, ensure_tensor, softmax


def hyperedges_from_relations(relations: RelationMatrix) -> np.ndarray:
    """Incidence matrix ``H (N, E)``: one hyperedge per usable relation type.

    A stock belongs to hyperedge ``k`` when it carries at least one type-k
    relation; types linking fewer than two stocks are dropped.
    """
    membership = np.zeros((relations.num_stocks, relations.num_types),
                          dtype=bool)
    i, j, k = relations.triples.T
    membership[i, k] = membership[j, k] = True
    keep = membership.sum(axis=0) >= 2
    incidence = membership[:, keep].astype(np.float64)
    if incidence.shape[1] == 0:
        raise ValueError("relation matrix induces no usable hyperedges")
    return incidence


class HawkesAttention(Module):
    """Temporal pooling with exponential excitation decay."""

    def __init__(self, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.proj = Linear(hidden_size, hidden_size, rng=gen)
        self.context = Parameter(np.empty(hidden_size))
        init.uniform_(self.context, -0.1, 0.1, rng=gen)
        # softplus(raw_decay) keeps the decay rate positive.
        self.raw_decay = Parameter(np.zeros(1))

    def forward(self, hidden_states: Tensor) -> Tensor:
        """``(N, T, U)`` hidden states → ``(N, U)`` pooled embedding."""
        hidden_states = ensure_tensor(hidden_states)
        _, steps, _ = hidden_states.shape
        scores = self.proj(hidden_states).tanh() @ self.context   # (N, T)
        decay = (1.0 + self.raw_decay.exp()).log()                # softplus
        ages = Tensor(np.arange(steps - 1, -1, -1, dtype=np.float64))
        decayed = scores - decay * ages                            # log-space
        weights = softmax(decayed, axis=-1)                        # (N, T)
        return (weights.unsqueeze(-1) * hidden_states).sum(axis=1)


class HypergraphConv(Module):
    """HGNN-style convolution with learnable hyperedge weights."""

    def __init__(self, incidence: np.ndarray, in_features: int,
                 out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.incidence = np.asarray(incidence, dtype=np.float64)
        n, e = self.incidence.shape
        self.edge_logits = Parameter(np.zeros(e))
        self.theta = Linear(in_features, out_features, rng=gen)
        edge_degree = self.incidence.sum(axis=0)
        node_degree = self.incidence.sum(axis=1)
        self._inv_edge_degree = 1.0 / np.maximum(edge_degree, 1.0)
        safe_degree = np.maximum(node_degree, 1.0)
        self._node_scale = np.where(node_degree > 0,
                                    safe_degree ** -0.5, 0.0)

    def forward(self, x: Tensor) -> Tensor:
        """``(N, C_in)`` node features → ``(N, C_out)``."""
        x = ensure_tensor(x)
        edge_weights = softmax(self.edge_logits, axis=-1) \
            * float(self.edge_logits.shape[0])
        h = Tensor(self.incidence)
        scaled = x * Tensor(self._node_scale[:, None])
        gathered = h.swapaxes(-1, -2) @ scaled                  # (E, C)
        gathered = gathered * Tensor(self._inv_edge_degree[:, None])
        gathered = gathered * edge_weights.unsqueeze(-1)
        spread = h @ gathered                                   # (N, C)
        spread = spread * Tensor(self._node_scale[:, None])
        return self.theta(spread)


class STHANSR(Module):
    """Spatiotemporal hypergraph attention network for stock ranking."""

    uses_relations = True

    def __init__(self, relations: RelationMatrix, num_features: int = 4,
                 hidden_size: int = 32,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.encoder = GRU(num_features, hidden_size, rng=gen)
        self.hawkes = HawkesAttention(hidden_size, rng=gen)
        incidence = hyperedges_from_relations(relations)
        self.hyperconv = HypergraphConv(incidence, hidden_size, hidden_size,
                                        rng=gen)
        self.scorer = Linear(hidden_size, 1, rng=gen)

    def forward(self, x: Tensor) -> Tensor:
        """Window features ``(T, N, D)`` → scores ``(N,)``."""
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, D) input, got {x.shape}")
        per_stock = x.transpose(1, 0, 2)                # (N, T, D)
        states, _ = self.encoder(per_stock)             # (N, T, U)
        pooled = self.hawkes(states)                    # (N, U)
        spatial = self.hyperconv(pooled).relu() + pooled
        return self.scorer(spatial).squeeze(-1)
