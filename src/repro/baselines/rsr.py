"""Relational Stock Ranking (RSR) — Feng et al., TOIS 2019 [9].

The strongest published baseline of Table IV.  RSR is the canonical
*two-step* design the paper argues against: an LSTM first encodes each
stock's window into a sequential embedding, and a temporal graph
convolution then revises the embeddings using stock relations.  Two
relational-strength functions are defined:

- **explicit** (``RSR_E``): ``g_ij = (e_iᵀ e_j) · φ(wᵀ a_ij + b)`` — the
  embedding similarity scaled by a learned relation-importance score;
- **implicit** (``RSR_I``): ``g_ij = φ(wᵀ [e_i ‖ e_j ‖ a_ij] + b)`` — a
  learned function of both embeddings and the relation vector.

Strengths are softmax-normalized over each stock's neighbors, the revised
embedding is the strength-weighted neighbor sum, and the concatenation
``[e_i ‖ r_i]`` feeds the scoring head.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph import RelationMatrix
from ..nn import LSTM, Linear
from ..nn.module import Module, Parameter
from ..nn import init
from ..nn.random import get_rng
from ..tensor import Tensor, concat, einsum, ensure_tensor, softmax


class RSR(Module):
    """Relational stock ranking with explicit or implicit relation modeling.

    Parameters
    ----------
    relations:
        The multi-hot relation matrix 𝓐.
    mode:
        ``"explicit"`` or ``"implicit"`` (the paper's RSR_E / RSR_I).
    hidden_size:
        LSTM embedding width ``U``.
    """

    uses_relations = True

    def __init__(self, relations: RelationMatrix, num_features: int = 4,
                 hidden_size: int = 32, mode: str = "explicit",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if mode not in ("explicit", "implicit"):
            raise ValueError(f"mode must be 'explicit' or 'implicit', got "
                             f"{mode!r}")
        gen = rng if rng is not None else get_rng()
        self.mode = mode
        self.relations = relations
        self.encoder = LSTM(num_features, hidden_size, rng=gen)
        self.hidden_size = hidden_size
        k = relations.num_types
        if mode == "explicit":
            self.rel_weight = Parameter(np.empty(k))
            init.uniform_(self.rel_weight, -0.1, 0.1, rng=gen)
            self.rel_bias = Parameter(np.zeros(1))
        else:
            self.pair_weight = Parameter(np.empty(2 * hidden_size + k))
            init.uniform_(self.pair_weight, -0.1, 0.1, rng=gen)
            self.pair_bias = Parameter(np.zeros(1))
        self.scorer = Linear(2 * hidden_size, 1, rng=gen)
        self._mask = relations.binary_adjacency()
        self._neg_inf = np.where(self._mask > 0, 0.0, -1e9)
        self._relation_tensor = Tensor(relations.dense())
        self._isolated = self._mask.sum(axis=1) == 0

    # ------------------------------------------------------------------
    def _strengths(self, embeddings: Tensor) -> Tensor:
        """Neighbor-normalized relational strength matrix ``(N, N)``."""
        if self.mode == "explicit":
            similarity = embeddings @ embeddings.swapaxes(-1, -2)
            importance = (einsum("ijk,k->ij", self._relation_tensor,
                                 self.rel_weight) + self.rel_bias)
            raw = similarity * importance.leaky_relu(0.2)
        else:
            n, u = embeddings.shape
            w_src = self.pair_weight[:u]
            w_dst = self.pair_weight[u:2 * u]
            w_rel = self.pair_weight[2 * u:]
            src_term = (embeddings @ w_src).unsqueeze(1)   # (N, 1)
            dst_term = (embeddings @ w_dst).unsqueeze(0)   # (1, N)
            rel_term = einsum("ijk,k->ij", self._relation_tensor, w_rel)
            raw = (src_term + dst_term + rel_term
                   + self.pair_bias).leaky_relu(0.2)
        # Mask non-neighbors and normalize per row.
        return softmax(raw + Tensor(self._neg_inf), axis=-1)

    def forward(self, x: Tensor) -> Tensor:
        """Window features ``(T, N, D)`` → scores ``(N,)``."""
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, D) input, got {x.shape}")
        per_stock = x.transpose(1, 0, 2)            # (N, T, D)
        _, (embeddings, _) = self.encoder(per_stock)  # (N, U)
        strengths = self._strengths(embeddings)
        revised = strengths @ embeddings             # (N, U)
        # Isolated stocks receive no neighbor information: zero out the
        # softmax's spurious uniform row for them.
        keep = Tensor((~self._isolated).astype(np.float64)[:, None])
        revised = revised * keep
        features = concat([embeddings, revised], axis=-1)
        return self.scorer(features).squeeze(-1)

    def __repr__(self) -> str:
        return f"RSR(mode={self.mode!r}, hidden={self.hidden_size})"
