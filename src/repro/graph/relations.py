"""Multi-relational stock-relation matrices (paper §III-A).

The paper encodes the pairwise relations between two stocks as a multi-hot
binary vector over ``K`` relation types, giving a tensor
``A ∈ {0,1}^{N×N×K}``.  It is almost all zeros (NASDAQ-854: 20,672 typed
pairs), so :class:`RelationMatrix` stores its ``(i, j, type)`` triples and
derives the Table III statistics, Eq. (3)'s binary adjacency, slicing by
relation source (Table VI) and, for dense arithmetic only, the tensor.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class RelationMatrix:
    """Typed, undirected stock relations as a canonical triple list.

    Attributes
    ----------
    num_stocks:
        ``N``, the number of stocks the relations range over.
    type_names:
        Length-``K`` list naming each relation type (e.g.
        ``"industry:biotechnology"`` or ``"wiki:supplier_of"``).
    triples:
        Read-only ``(M, 3)`` int64 array of ``(i, j, type)`` rows with
        ``i < j``, sorted and unique: stocks ``i`` and ``j`` are linked by
        relation ``type``.  Relations are undirected, so each pair is
        stored once and the relation is symmetric by construction.  Input
        rows may come in any order, either endpoint first, repeated.
    """

    def __init__(self, num_stocks: int, type_names: Sequence[str],
                 triples=()):
        self.num_stocks = int(num_stocks)
        self.type_names = list(type_names)
        if self.num_stocks < 0:
            raise ValueError(f"num_stocks must be >= 0, got {num_stocks}")
        triples = np.asarray(triples, dtype=np.int64)
        if triples.size == 0:
            triples = triples.reshape(0, 3)
        if triples.ndim != 2 or triples.shape[1] != 3:
            raise ValueError(f"relation triples must be (M, 3) rows of "
                             f"(i, j, type), got shape {triples.shape}")
        pairs, types = triples[:, :2], triples[:, 2]
        if np.any((pairs < 0) | (pairs >= self.num_stocks)):
            raise ValueError(f"stock index out of range for "
                             f"{self.num_stocks} stocks")
        if np.any((types < 0) | (types >= self.num_types)):
            raise ValueError(f"relation type index out of range for "
                             f"{self.num_types} types")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self-relations are not allowed")
        canonical = np.column_stack([pairs.min(axis=1), pairs.max(axis=1),
                                     types])
        self.triples = np.unique(canonical, axis=0)
        self.triples.flags.writeable = False
        self._cache_token: Optional[Tuple[int, int, int, int]] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_types(self) -> int:
        return len(self.type_names)

    def linked_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The linked unordered pairs and where their triples sit.

        Returns ``(pairs, starts, counts)``: ``pairs`` is ``(P, 2)`` with
        ``i < j`` in sorted order, and pair ``p``'s relation types are
        ``triples[starts[p]:starts[p] + counts[p], 2]``.
        """
        head = np.ones(len(self.triples), dtype=bool)
        head[1:] = np.any(self.triples[1:, :2] != self.triples[:-1, :2],
                          axis=1)
        starts = np.flatnonzero(head)
        counts = np.diff(np.append(starts, len(self.triples)))
        return self.triples[starts, :2], starts, counts

    def pair_vector(self, i: int, j: int) -> np.ndarray:
        """The multi-hot relation vector ``a_ij ∈ {0,1}^K``."""
        lo, hi = min(i, j), max(i, j)
        match = (self.triples[:, 0] == lo) & (self.triples[:, 1] == hi)
        vector = np.zeros(self.num_types)
        vector[self.triples[match, 2]] = 1.0
        return vector

    def type_counts(self) -> np.ndarray:
        """``(N, N)`` number of relation types per pair (``𝓐.sum(-1)``)."""
        counts = np.zeros((self.num_stocks, self.num_stocks))
        np.add.at(counts, (self.triples[:, 0], self.triples[:, 1]), 1.0)
        return counts + counts.T

    def binary_adjacency(self) -> np.ndarray:
        """Paper Eq. (3): ``A_ij = 1`` iff ``sum(a_ij) > 0`` (no diagonal)."""
        return (self.type_counts() > 0).astype(np.float64)

    def dense(self) -> np.ndarray:
        """``𝓐`` as a new float64 ``(N, N, K)`` array (not kept)."""
        tensor = np.zeros((self.num_stocks, self.num_stocks, self.num_types))
        i, j, k = self.triples.T
        tensor[i, j, k] = 1.0
        tensor[j, i, k] = 1.0
        return tensor

    def cache_token(self) -> Tuple[int, int, int, int]:
        """Content fingerprint identifying this relation set in caches.

        A shape + CRC32 digest of the triples rather than ``id()``: object
        identity can be recycled after garbage collection, which would
        silently serve a stale normalized adjacency.  The triples are
        read-only, so the token is computed once.
        """
        if self._cache_token is None:
            self._cache_token = (self.num_stocks, self.num_types,
                                 len(self.triples),
                                 zlib.crc32(self.triples.tobytes()))
        return self._cache_token

    def relation_ratio(self) -> float:
        """Fraction of (unordered) stock pairs linked by ≥ 1 relation.

        This is the "relation ratio" statistic of Table III.
        """
        n = self.num_stocks
        if n < 2:
            return 0.0
        return float(self.edge_count() / (n * (n - 1) / 2))

    def edge_count(self) -> int:
        """Number of linked unordered pairs."""
        return len(self.linked_pairs()[0])

    def degree(self) -> np.ndarray:
        """Per-stock neighbor count under the binary adjacency."""
        pairs = self.linked_pairs()[0]
        return np.bincount(pairs.ravel(),
                           minlength=self.num_stocks).astype(np.float64)

    # ------------------------------------------------------------------
    # combination and slicing
    # ------------------------------------------------------------------
    def select_types(self, indices: Sequence[int]) -> "RelationMatrix":
        """Restrict to a subset of relation types (e.g. industry-only)."""
        indices = list(indices)
        if len(set(indices)) != len(indices):
            raise ValueError(f"repeated relation type in {indices}")
        new_index = np.full(self.num_types, -1, dtype=np.int64)
        new_index[indices] = np.arange(len(indices))
        mapped = new_index[self.triples[:, 2]]
        keep = mapped >= 0
        triples = np.column_stack([self.triples[keep, :2], mapped[keep]])
        return RelationMatrix(self.num_stocks,
                              [self.type_names[i] for i in indices], triples)

    def select_prefix(self, prefix: str) -> "RelationMatrix":
        """Restrict to types whose name starts with ``prefix`` (e.g. "wiki:")."""
        indices = [i for i, name in enumerate(self.type_names)
                   if name.startswith(prefix)]
        if not indices:
            raise KeyError(f"no relation types with prefix {prefix!r} among "
                           f"{self.type_names[:5]}...")
        return self.select_types(indices)

    def merge(self, other: "RelationMatrix") -> "RelationMatrix":
        """Concatenate relation types of two matrices over the same stocks."""
        if other.num_stocks != self.num_stocks:
            raise ValueError("cannot merge relation matrices over different "
                             f"universes ({self.num_stocks} vs "
                             f"{other.num_stocks} stocks)")
        overlap = set(self.type_names) & set(other.type_names)
        if overlap:
            raise ValueError(f"duplicate relation types: {sorted(overlap)}")
        shifted = other.triples + np.array([0, 0, self.num_types])
        return RelationMatrix(self.num_stocks,
                              self.type_names + other.type_names,
                              np.concatenate([self.triples, shifted]))

    def subgraph(self, stock_indices: Sequence[int]) -> "RelationMatrix":
        """Restrict to a subset of stocks, renumbered in the given order
        (used by the Figure 8 case study)."""
        idx = np.asarray(list(stock_indices), dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.num_stocks)):
            raise ValueError(f"stock index out of range for "
                             f"{self.num_stocks} stocks")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("subgraph stock indices must be distinct")
        position = np.full(self.num_stocks, -1, dtype=np.int64)
        position[idx] = np.arange(len(idx))
        i, j = position[self.triples[:, 0]], position[self.triples[:, 1]]
        keep = (i >= 0) & (j >= 0)
        return RelationMatrix(len(idx), self.type_names,
                              np.column_stack([i[keep], j[keep],
                                               self.triples[keep, 2]]))

    def type_usage(self) -> Dict[str, int]:
        """Number of linked pairs carrying each relation type."""
        counts = np.bincount(self.triples[:, 2], minlength=self.num_types)
        return {name: int(c) for name, c in zip(self.type_names, counts)}

    def __repr__(self) -> str:
        return (f"RelationMatrix(stocks={self.num_stocks}, "
                f"types={self.num_types}, "
                f"ratio={self.relation_ratio():.4f})")
