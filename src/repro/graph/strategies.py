"""The three relation-aware propagation strategies of paper §IV-B.

Each strategy is a relation-aware function 𝓡 that turns the multi-hot
relation tensor ``𝓐 ∈ {0,1}^{N×N×K}`` (and, for the time-sensitive variant,
the node features) into a weighted adjacency used by the graph convolution:

- :class:`UniformStrategy` — Eq. (3): every related pair gets weight 1.
- :class:`WeightStrategy` — Eq. (4): ``A_ij = 𝓐_ijᵀ w + b`` with learnable
  ``w ∈ R^K`` and scalar ``b``, shared across time-steps.
- :class:`TimeSensitiveStrategy` — Eq. (5): the relation importance of
  Eq. (4) scaled by the per-time-step feature correlation
  ``X(t)_iᵀ X(t)_j / √n`` (scaled dot-product), yielding a distinct
  adjacency for every relational graph in G_RT.

Implementation notes
--------------------
- Following the released RT-GCN code's convention, learned weights are
  restricted to *related* pairs: the ``+ b`` bias applies only where
  ``sum(𝓐_ij) > 0``, otherwise the graph would become fully dense.
- Every strategy returns the *normalized* adjacency
  ``D̃^{-1/2} Ã D̃^{-1/2}`` ready for Eq. (2); normalization is
  differentiable for the learnable strategies.
- Each strategy carries a ``graph_mode`` (``auto`` | ``dense`` |
  ``sparse``): the sparse path evaluates Eq. (3)–(5) only on the stored
  edges (plus self-loops), returning a
  :class:`~repro.tensor.sparse.SparseTensor` that :class:`GraphConv`
  propagates via ``spmm``.  ``auto`` dispatches on graph density (see
  ``docs/performance.md``).  The two paths agree entry-by-entry up to
  the order a pair's relation weights are summed in: sparse degrees sum
  the same |values| + eps, and every off-pattern dense entry is zero.
- Static products — the uniform strategy's normalized adjacency and the
  learnable strategies' CSR edge structures — are computed once per
  distinct graph through :func:`repro.graph.cache.adjacency_cache`
  instead of once per forward.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..nn import init
from ..nn.module import Module, Parameter
from ..nn.random import get_rng
from ..tensor import Tensor, concat, default_dtype, einsum, ensure_tensor
from ..tensor.fused import fused_enabled, time_adjacency_fused
from ..tensor.sparse import (SparsePattern, SparseTensor, load_csr_backend,
                             resolve_graph_mode, sddmm, sparse_segment_sum)
from .adjacency import (normalize_adjacency, normalize_sparse_adjacency,
                        normalize_weighted_adjacency)
from .cache import adjacency_cache
from .relations import RelationMatrix


class _SparseStructure(NamedTuple):
    """Static CSR structure of one relation graph (topology only).

    ``full`` is the pattern of ``mask ∪ diagonal`` (what the normalized
    adjacency is stored on); ``off`` is the pattern of the mask alone
    (where learned edge values live); ``edge_types`` is ``(nnz_off, K)``,
    row ``e`` holding edge ``e``'s relation types (what Eq. 4 gathers
    ``w`` over); ``order`` permutes ``concat([off_values, diag_values])``
    into ``full``'s row-major CSR order.
    """

    full: SparsePattern
    off: SparsePattern
    edge_types: SparsePattern
    order: np.ndarray


def _csr(rows: np.ndarray, cols: np.ndarray,
         shape: Tuple[int, int]) -> SparsePattern:
    """Pattern of row-major sorted ``(rows, cols)`` entries."""
    counts = np.bincount(rows, minlength=shape[0])
    return SparsePattern(np.concatenate([[0], np.cumsum(counts)]), cols,
                         shape)


def _sparse_structure(relations: RelationMatrix) -> _SparseStructure:
    n = relations.num_stocks
    pairs, starts, counts = relations.linked_pairs()
    # Both directions of every linked pair, in row-major order.
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    sort = np.lexsort((cols, rows))
    rows, cols = rows[sort], cols[sort]
    edge_pair = np.tile(np.arange(len(pairs)), 2)[sort]
    off = _csr(rows, cols, (n, n))
    # Appending the loops after the off edges makes the sort permutation
    # exactly the reindexing of concat([off_values, diag_values]).
    loops = np.arange(n)
    all_rows = np.concatenate([rows, loops])
    all_cols = np.concatenate([cols, loops])
    order = np.lexsort((all_cols, all_rows))
    full = _csr(all_rows[order], all_cols[order], (n, n))
    # Edge e's relation types are its pair's run of triples.
    per_edge = counts[edge_pair]
    type_ptr = np.concatenate([[0], np.cumsum(per_edge)])
    triple = (np.repeat(starts[edge_pair] - type_ptr[:-1], per_edge)
              + np.arange(type_ptr[-1]))
    edge_types = SparsePattern(type_ptr, relations.triples[triple, 2],
                               (off.nnz, relations.num_types))
    return _SparseStructure(full, off, edge_types, order)


class RelationStrategy(Module):
    """Base class: maps relations (and features) to normalized adjacency."""

    #: whether the produced adjacency differs per time-step
    time_varying: bool = False

    def __init__(self, relations: RelationMatrix, graph_mode: str = "auto",
                 density_threshold: Optional[float] = None):
        super().__init__()
        self.relations = relations
        self.graph_mode = graph_mode
        self.density_threshold = density_threshold
        n = relations.num_stocks
        # Dispatch density counts the self-loops the propagation adds.
        self.density = ((2 * relations.edge_count() + n) / (n * n)
                        if n else 1.0)
        if self.resolved_mode() == "sparse":
            load_csr_backend()

    @property
    def num_types(self) -> int:
        return self.relations.num_types

    def resolved_mode(self) -> str:
        """The concrete backend ``auto`` resolves to for this graph."""
        return resolve_graph_mode(self.graph_mode, self.density,
                                  self.density_threshold)

    def _structure(self) -> _SparseStructure:
        """This graph's CSR structure, computed once per distinct graph."""
        key = ("structure", self.relations.cache_token())
        return adjacency_cache().get_or_compute(
            key, lambda: _sparse_structure(self.relations))

    def forward(self, features: Optional[Tensor] = None) -> Tensor:
        raise NotImplementedError


class UniformStrategy(RelationStrategy):
    """Eq. (3): binary adjacency, one shared weight for all relations.

    The normalized adjacency is constant, so it is computed once per
    distinct graph (cached globally, shared across model instances).
    ``renormalize=False`` switches to the pre-trick propagation
    ``I + D^{-1/2} A D^{-1/2}`` of Eq. (1) — used by the normalization
    ablation benchmark.
    """

    def __init__(self, relations: RelationMatrix, renormalize: bool = True,
                 graph_mode: str = "auto",
                 density_threshold: Optional[float] = None):
        super().__init__(relations, graph_mode=graph_mode,
                         density_threshold=density_threshold)
        self.renormalize = renormalize

    def _dense_normalized(self) -> Tensor:
        # The storage dtype is part of the key: the same graph trained
        # under different dtype policies must not share one cached tensor
        # (a float64 adjacency served into a float32 run would silently
        # re-promote every propagation).
        key = ("uniform", self.relations.cache_token(), self.renormalize,
               "dense", default_dtype().str)
        return adjacency_cache().get_or_compute(
            key, lambda: Tensor(normalize_adjacency(
                self.relations.binary_adjacency(),
                add_loops=self.renormalize)))

    def _sparse_normalized(self) -> SparseTensor:
        key = ("uniform", self.relations.cache_token(), self.renormalize,
               "sparse", default_dtype().str)
        return adjacency_cache().get_or_compute(
            key, lambda: SparseTensor.from_dense(
                self._dense_normalized().data))

    def forward(self, features: Optional[Tensor] = None) -> Tensor:
        if self.resolved_mode() == "sparse":
            return self._sparse_normalized()
        return self._dense_normalized()


class WeightStrategy(RelationStrategy):
    """Eq. (4): learnable per-relation-type weights, shared across time."""

    def __init__(self, relations: RelationMatrix,
                 rng: Optional[np.random.Generator] = None,
                 graph_mode: str = "auto",
                 density_threshold: Optional[float] = None):
        super().__init__(relations, graph_mode=graph_mode,
                         density_threshold=density_threshold)
        gen = rng if rng is not None else get_rng()
        self.weight = Parameter(np.empty(relations.num_types))
        init.uniform_(self.weight, 0.5, 1.5, rng=gen)
        self.bias = Parameter(np.zeros(1))
        self._relation_tensor: Optional[Tensor] = None
        self._mask_tensor: Optional[Tensor] = None

    def _dense_operands(self) -> Tuple[Tensor, Tensor]:
        """The dense ``𝓐`` and its mask, built on the first dense forward
        (``TrainConfig.graph_mode`` may force the mode after construction)
        in the weight's dtype; ``Module.astype`` casts them from then on."""
        if self._relation_tensor is None:
            dtype = self.weight.data.dtype
            self._relation_tensor = Tensor(self.relations.dense(),
                                           dtype=dtype)
            self._mask_tensor = Tensor(self.relations.binary_adjacency(),
                                       dtype=dtype)
        return self._relation_tensor, self._mask_tensor

    def raw_adjacency(self) -> Tensor:
        """Un-normalized Eq. (4) ``(𝓐w + b)⊙M`` (tests, case study, and
        Eq. 5's composed path)."""
        relation, mask = self._dense_operands()
        scores = einsum("ijk,k->ij", relation, self.weight)
        return (scores + self.bias) * mask

    def _edge_values(self, structure: _SparseStructure) -> Tensor:
        """Eq. (4) on the stored edges, ``(nnz_off,)``: each edge sums
        the gathered ``w`` of its relation types, plus ``b``."""
        types = structure.edge_types
        return sparse_segment_sum(self.weight[types.indices],
                                  types) + self.bias

    def forward(self, features: Optional[Tensor] = None) -> Tensor:
        if self.resolved_mode() != "sparse":
            return normalize_weighted_adjacency(self.raw_adjacency())
        structure = self._structure()
        loops = Tensor(np.ones(self.relations.num_stocks))
        values = concat([self._edge_values(structure), loops],
                        axis=0)[structure.order]
        return normalize_sparse_adjacency(
            SparseTensor(structure.full, values))


class TimeSensitiveStrategy(WeightStrategy):
    """Eq. (5): feature correlation × relation importance, per time-step.

    ``forward(features)`` expects ``features`` of shape ``(T, N, D)`` and
    returns a ``(T, N, N)`` stack of normalized adjacencies, one per
    relational graph in G_RT.  The relation importance is Eq. (4)'s, with
    the same parameters as :class:`WeightStrategy`.
    """

    time_varying = True

    def _check_features(self, features: Tensor) -> Tensor:
        if features is None:
            raise ValueError("TimeSensitiveStrategy requires node features "
                             "of shape (T, N, D)")
        features = ensure_tensor(features)
        if features.ndim != 3:
            raise ValueError(f"expected (T, N, D) features, got "
                             f"{features.shape}")
        if features.shape[1] != self.relations.num_stocks:
            raise ValueError(f"feature node count {features.shape[1]} does "
                             f"not match {self.relations.num_stocks} stocks")
        return features

    def forward(self, features: Optional[Tensor] = None) -> Tensor:
        features = self._check_features(features)
        dim = features.shape[2]
        if self.resolved_mode() == "sparse":
            structure = self._structure()
            # Eq. (5) on the stored edges only: sampled correlation times
            # the shared relation importance, with unit self-loops.
            correlation = sddmm(structure.off, features,
                                features) * (dim ** -0.5)
            loops = Tensor(np.ones((features.shape[0],
                                    self.relations.num_stocks)))
            values = concat([correlation * self._edge_values(structure),
                             loops], axis=-1)[:, structure.order]
            return normalize_sparse_adjacency(
                SparseTensor(structure.full, values))
        relation, mask = self._dense_operands()
        if fused_enabled() and not features.requires_grad:
            # One tape node; features that require grad (layers >= 2)
            # keep the composed chain below.
            return time_adjacency_fused(features, relation, mask,
                                        self.weight, self.bias)
        # time-correlation: scaled dot-product X(t) X(t)^T / sqrt(n)
        correlation = (features @ features.swapaxes(-1, -2)) * (dim ** -0.5)
        weighted = correlation * self.raw_adjacency() * mask
        return normalize_weighted_adjacency(weighted)


def make_strategy(name: str, relations: RelationMatrix,
                  rng: Optional[np.random.Generator] = None,
                  graph_mode: str = "auto",
                  density_threshold: Optional[float] = None
                  ) -> RelationStrategy:
    """Factory used by models and benchmarks: ``'uniform'|'weight'|'time'``.

    Also accepts the paper's single-letter labels ``'U'``, ``'W'``, ``'T'``.
    ``graph_mode``/``density_threshold`` configure the dense/sparse
    dispatch (see ``docs/performance.md``).
    """
    key = name.lower()
    if key in ("uniform", "u"):
        return UniformStrategy(relations, graph_mode=graph_mode,
                               density_threshold=density_threshold)
    if key in ("weight", "weighted", "w"):
        return WeightStrategy(relations, rng=rng, graph_mode=graph_mode,
                              density_threshold=density_threshold)
    if key in ("time", "time-sensitive", "time_sensitive", "t"):
        return TimeSensitiveStrategy(relations, rng=rng,
                                     graph_mode=graph_mode,
                                     density_threshold=density_threshold)
    raise ValueError(f"unknown strategy {name!r}; expected uniform/weight/"
                     "time")
