"""Sparse kernels and autograd primitives for graph propagation.

The paper's relation graphs are sparse (<5 % density at NASDAQ scale), yet
the dense path multiplies full ``(N, N)`` adjacencies every time-step.
This module supplies the CSR machinery the graph stack dispatches to:

- :class:`SparsePattern` — an immutable CSR *structure* (row pointers +
  column indices, no values) shared by every op on the same graph;
- :class:`SparseTensor` — a pattern plus a :class:`Tensor` of per-edge
  values, so learned edge weights participate in autograd;
- :func:`spmm` — sparse×dense matmul.  Forward is ``CSR × dense``;
  backward is ``CSRᵀ × grad`` for the dense operand and a gathered
  per-edge inner product (SDDMM) for the value operand, so strategies
  with learnable edge weights keep training;
- :func:`sddmm` — sampled dense-dense matmul: the per-edge inner products
  ``a_i · b_j`` for every stored edge ``(i, j)`` (the sparse form of the
  time-sensitive strategy's feature correlation);
- :func:`sparse_segment_sum` / :func:`sparse_gather` — per-row reductions
  and node→edge broadcasts used by sparse normalization and attention.

Each primitive is *monolithic*: raw NumPy/SciPy forward plus a closure
backward, never a composition of profiled ``Tensor`` ops.  That keeps the
op profiler's attribution clean — a sparse run shows ``spmm`` where a
dense run shows ``matmul``, with no double counting.

SciPy's C-implemented CSR matmul is the kernel backend (SciPy is a
declared dependency).  Importing SciPy costs ~0.2 s and a dense-mode
process never needs it, so this module does not import it:
:func:`load_csr_backend` does, and a graph module that resolves to the
sparse path calls it when it is built or switched to sparse — before
its first forward, and before a server forks its workers.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .tensor import ArrayLike, Tensor, _unbroadcast, ensure_tensor

#: ``scipy.sparse`` once :func:`load_csr_backend` has imported it
_scipy_sparse = None

#: graphs at or below this density default to the sparse path under
#: ``graph_mode="auto"``.  The mini test markets sit at 13-17 % density
#: (including self-loops) where dense BLAS still wins; the paper-scale
#: universes are below 5 %, where CSR wins by ~5x.
DEFAULT_DENSITY_THRESHOLD = 0.10

GRAPH_MODES = ("auto", "dense", "sparse")


def resolve_graph_mode(mode: str, density: float,
                       threshold: Optional[float] = None) -> str:
    """Turn an ``auto|dense|sparse`` request into a concrete backend."""
    if mode not in GRAPH_MODES:
        raise ValueError(f"unknown graph mode {mode!r}; expected one of "
                         f"{GRAPH_MODES}")
    if mode != "auto":
        return mode
    limit = DEFAULT_DENSITY_THRESHOLD if threshold is None else threshold
    return "sparse" if density <= limit else "dense"


def load_csr_backend():
    """Import SciPy's CSR module on first call and return it.

    Call it at a cold point — where a graph module is built or switched
    to the sparse path — so the import never lands in a forward, and a
    forked worker inherits the loaded module.  The CSR kernel calls it
    too, which is a global lookup once the module is loaded.
    """
    global _scipy_sparse
    if _scipy_sparse is None:
        from scipy import sparse
        _scipy_sparse = sparse
    return _scipy_sparse


# ----------------------------------------------------------------------
# CSR structure
# ----------------------------------------------------------------------
class SparsePattern:
    """Immutable CSR sparsity structure (no values).

    Stores ``indptr`` (``shape[0] + 1`` row pointers) and ``indices``
    (column index per stored entry, row-major with ascending columns
    inside each row).  Derived data — the expanded row index per entry
    and the transposed structure — is computed lazily and cached, since
    every op on the same graph shares one pattern instance.
    """

    __slots__ = ("shape", "indptr", "indices", "_rows", "_transpose")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 shape: Tuple[int, int]):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if indptr.ndim != 1 or indptr.shape[0] != n_rows + 1:
            raise ValueError(f"indptr must have {n_rows + 1} entries, got "
                             f"shape {indptr.shape}")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indptr[-1] != indices.shape[0]:
            raise ValueError(f"indptr[-1]={indptr[-1]} does not match "
                             f"{indices.shape[0]} stored indices")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError(f"column indices out of range for {n_cols} "
                             "columns")
        self.shape = (n_rows, n_cols)
        self.indptr = indptr
        self.indices = indices
        self._rows: Optional[np.ndarray] = None
        self._transpose = None

    @classmethod
    def trusted(cls, indptr: np.ndarray, indices: np.ndarray,
                shape: Tuple[int, int],
                rows: Optional[np.ndarray] = None) -> "SparsePattern":
        """Construct without invariant checks.

        For kernels that produce valid CSR structure by construction —
        the streaming delta update edits an already-validated pattern in
        row-major key order, so re-validating every tick is pure
        overhead.  Callers guarantee the ``__init__`` invariants;
        ``rows`` optionally pre-seeds the COO row-expansion cache.
        """
        pattern = cls.__new__(cls)
        pattern.shape = (int(shape[0]), int(shape[1]))
        pattern.indptr = indptr
        pattern.indices = indices
        pattern._rows = rows
        pattern._transpose = None
        return pattern

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SparsePattern":
        """Structure of the nonzero entries of a dense 2-D mask."""
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
        nonzero = mask != 0
        indptr = np.concatenate(
            [[0], np.cumsum(nonzero.sum(axis=1))]).astype(np.int64)
        _, cols = np.nonzero(nonzero)
        return cls(indptr, cols.astype(np.int64), mask.shape)

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    @property
    def density(self) -> float:
        size = self.shape[0] * self.shape[1]
        return self.nnz / size if size else 0.0

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry (the COO expansion)."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.shape[0], dtype=np.int64),
                                   np.diff(self.indptr))
        return self._rows

    def transpose_data(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR structure of the transpose: ``(t_indptr, t_indices, perm)``.

        ``perm`` maps transposed-entry order back into this pattern's
        entry order, so transposed values are ``values[..., perm]``.
        """
        if self._transpose is None:
            rows, cols = self.rows, self.indices
            perm = np.lexsort((rows, cols))
            counts = np.bincount(cols, minlength=self.shape[1])
            t_indptr = np.concatenate([[0], np.cumsum(counts)])
            self._transpose = (t_indptr.astype(np.int64), rows[perm], perm)
        return self._transpose

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePattern):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:                         # identity-hashed
        return id(self)

    def __repr__(self) -> str:
        return (f"SparsePattern(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.4f})")


# ----------------------------------------------------------------------
# kernels (no autograd; operate on raw arrays)
# ----------------------------------------------------------------------
def _kernel_2d(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
               dense: np.ndarray, n_rows: int) -> np.ndarray:
    """``CSR(values) @ dense`` for one value vector and one 2-D operand."""
    matrix = load_csr_backend().csr_matrix((values, indices, indptr),
                                           shape=(n_rows, dense.shape[0]))
    return np.asarray(matrix @ dense)


def _csr_matmul(pattern: SparsePattern, values: np.ndarray,
                dense: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``A @ dense`` (or ``Aᵀ @ dense``) with batched values and operands.

    ``values`` has shape ``(..., nnz)`` (or ``(nnz,)``, shared across the
    batch); ``dense`` has shape ``(..., n_cols, C)``.  Leading dims
    broadcast like NumPy matmul batching.
    """
    n_rows, n_cols = pattern.shape
    indptr, indices = pattern.indptr, pattern.indices
    if transpose:
        indptr, indices, perm = pattern.transpose_data()
        values = values[..., perm]
        n_rows, n_cols = n_cols, n_rows
    # Kernels follow the (float) dtype of their operands — the dtype policy
    # steers them through the tensors it produced, never below float32.
    target = np.promote_types(np.result_type(values, dense), np.float32)
    values = np.asarray(values, dtype=target)
    dense = np.asarray(dense, dtype=target)
    channels = dense.shape[-1]
    lead = np.broadcast_shapes(values.shape[:-1], dense.shape[:-2])
    out_shape = lead + (n_rows, channels)

    if values.ndim == 1:
        # One value vector for the whole batch: a single kernel call on
        # the (n_cols, batch*C) unrolled operand beats a Python loop.
        batched = np.broadcast_to(dense, lead + dense.shape[-2:])
        batch = int(np.prod(lead)) if lead else 1
        stacked = np.ascontiguousarray(
            np.moveaxis(batched.reshape((batch,) + dense.shape[-2:]), 0, 1)
        ).reshape(n_cols, batch * channels)
        out = _kernel_2d(indptr, indices, values, stacked, n_rows)
        return np.moveaxis(out.reshape(n_rows, batch, channels),
                           1, 0).reshape(out_shape)

    flat_values = np.broadcast_to(
        values, lead + values.shape[-1:]).reshape(-1, values.shape[-1])
    flat_dense = np.broadcast_to(
        dense, lead + dense.shape[-2:]).reshape((-1,) + dense.shape[-2:])
    out = np.empty((flat_values.shape[0], n_rows, channels), dtype=target)
    for i in range(flat_values.shape[0]):
        out[i] = _kernel_2d(indptr, indices, flat_values[i], flat_dense[i],
                            n_rows)
    return out.reshape(out_shape)


def _sampled_inner(pattern: SparsePattern, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Per-edge inner products ``a[..., i, :] · b[..., j, :]``: ``(..., nnz)``.

    The per-slice ``einsum`` avoids fancy indexing on a middle axis,
    which NumPy handles an order of magnitude slower.
    """
    rows, cols = pattern.rows, pattern.indices
    target = np.promote_types(np.result_type(a, b), np.float32)
    a = np.asarray(a, dtype=target)
    b = np.asarray(b, dtype=target)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    flat_a = np.broadcast_to(a, lead + a.shape[-2:]).reshape(
        (-1,) + a.shape[-2:])
    flat_b = np.broadcast_to(b, lead + b.shape[-2:]).reshape(
        (-1,) + b.shape[-2:])
    out = np.empty((flat_a.shape[0], pattern.nnz), dtype=target)
    for i in range(flat_a.shape[0]):
        out[i] = np.einsum("ec,ec->e", flat_a[i][rows], flat_b[i][cols])
    return out.reshape(lead + (pattern.nnz,))


def _segment_sum_last(values: np.ndarray, indptr: np.ndarray,
                      n_rows: int) -> np.ndarray:
    """Sum the last axis of ``(..., nnz)`` into row segments: ``(..., n)``."""
    out = np.zeros(values.shape[:-1] + (n_rows,), dtype=values.dtype)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.size:
        out[..., nonempty] = np.add.reduceat(
            values, indptr[:-1][nonempty], axis=-1)
    return out


# ----------------------------------------------------------------------
# SparseTensor
# ----------------------------------------------------------------------
class SparseTensor:
    """A CSR matrix whose values are a :class:`Tensor` (autograd-aware).

    ``values`` has shape ``(..., nnz)``; leading dims are a batch of
    matrices sharing one sparsity pattern (the time-sensitive strategy's
    ``(T, N, N)`` adjacency stack stores ``(T, nnz)`` values).
    """

    __slots__ = ("pattern", "values")

    def __init__(self, pattern: SparsePattern, values: Union[Tensor,
                                                             np.ndarray]):
        values = ensure_tensor(values)
        if values.shape[-1:] != (pattern.nnz,):
            raise ValueError(f"values last dim {values.shape} does not "
                             f"match pattern nnz {pattern.nnz}")
        self.pattern = pattern
        self.values = values

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dense(cls, dense: ArrayLike,
                   pattern: Optional[SparsePattern] = None) -> "SparseTensor":
        """Sparsify a dense ``(..., N, M)`` tensor.

        Without an explicit ``pattern`` the structure is the union of the
        nonzeros across leading dims; gradients flow back to ``dense``
        through the gather.
        """
        dense = ensure_tensor(dense)
        if dense.ndim < 2:
            raise ValueError(f"need at least 2 dims, got shape {dense.shape}")
        if pattern is None:
            mask = dense.data != 0
            if dense.ndim > 2:
                mask = mask.any(axis=tuple(range(dense.ndim - 2)))
            pattern = SparsePattern.from_mask(mask)
        values = dense[(Ellipsis, pattern.rows, pattern.indices)]
        return cls(pattern, values)

    @classmethod
    def from_csr(cls, csr) -> "SparseTensor":
        """Adopt any CSR-like object exposing ``indptr/indices/data/shape``."""
        pattern = SparsePattern(csr.indptr, csr.indices, csr.shape)
        # Tensor() applies the dtype-policy coercion rule to csr.data.
        return cls(pattern, Tensor(np.asarray(csr.data)))

    # -- views ----------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.values.shape[:-1] + self.pattern.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim + 1

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def density(self) -> float:
        return self.pattern.density

    @property
    def requires_grad(self) -> bool:
        return self.values.requires_grad

    def detach(self) -> "SparseTensor":
        return SparseTensor(self.pattern, self.values.detach())

    def to_dense(self) -> Tensor:
        """Densify; gradients scatter back onto the stored entries."""
        values = self.values
        pattern = self.pattern
        index = (Ellipsis, pattern.rows, pattern.indices)
        data = np.zeros(values.shape[:-1] + pattern.shape,
                        dtype=values.data.dtype)
        data[index] = values.data

        def backward(grad: np.ndarray) -> None:
            if values.requires_grad:
                values._accumulate(grad[index])

        return values._make_child(data, (values,), backward)

    def __matmul__(self, dense: ArrayLike) -> Tensor:
        return spmm(self, dense)

    def __repr__(self) -> str:
        return (f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.4f})")


# ----------------------------------------------------------------------
# autograd primitives
# ----------------------------------------------------------------------
def spmm(adj: SparseTensor, dense: ArrayLike) -> Tensor:
    """Sparse × dense matmul ``A @ X`` with gradients for both operands.

    ``adj`` is ``(..., N, M)`` sparse, ``dense`` is ``(..., M, C)``;
    leading dims broadcast.  Backward propagates ``Aᵀ @ grad`` to the
    dense side and the sampled inner products ``grad_i · x_j`` per stored
    edge ``(i, j)`` to the value side — dense gradients never materialize
    an ``(N, N)`` array.
    """
    if not isinstance(adj, SparseTensor):
        raise TypeError(f"spmm expects a SparseTensor, got {type(adj)}")
    dense = ensure_tensor(dense)
    pattern, values = adj.pattern, adj.values
    if dense.shape[-2] != pattern.shape[1]:
        raise ValueError(f"cannot multiply {pattern.shape} sparse by "
                         f"{dense.shape} dense")
    out_data = _csr_matmul(pattern, values.data, dense.data)

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            grad_dense = _csr_matmul(pattern, values.data, grad,
                                     transpose=True)
            dense._accumulate(_unbroadcast(grad_dense, dense.shape))
        if values.requires_grad:
            grad_values = _sampled_inner(pattern, grad, dense.data)
            values._accumulate(_unbroadcast(grad_values, values.shape))

    return values._make_child(out_data, (values, dense), backward)


def sddmm(pattern: SparsePattern, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Sampled dense-dense matmul: ``out_e = a[..., i_e, :] · b[..., j_e, :]``.

    The sparse counterpart of ``a @ b.T`` evaluated only at the stored
    edges — how the time-sensitive strategy's feature correlation avoids
    the dense ``(T, N, N)`` product.  Backward is two CSR matmuls with
    ``grad`` as edge values.
    """
    a = ensure_tensor(a)
    b = ensure_tensor(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"inner dims differ: {a.shape} vs {b.shape}")
    if a.shape[-2] != pattern.shape[0] or b.shape[-2] != pattern.shape[1]:
        raise ValueError(f"operands {a.shape} / {b.shape} do not match "
                         f"pattern {pattern.shape}")
    out_data = _sampled_inner(pattern, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            grad_a = _csr_matmul(pattern, grad, b.data)
            a._accumulate(_unbroadcast(grad_a, a.shape))
        if b.requires_grad:
            grad_b = _csr_matmul(pattern, grad, a.data, transpose=True)
            b._accumulate(_unbroadcast(grad_b, b.shape))

    return a._make_child(out_data, (a, b), backward)


def sparse_segment_sum(values: ArrayLike, pattern: SparsePattern) -> Tensor:
    """Row-wise sum of per-edge values: ``(..., nnz) → (..., n_rows)``.

    The sparse form of ``adjacency.sum(axis=-1)`` (degree computation);
    empty rows sum to zero.
    """
    values = ensure_tensor(values)
    if values.shape[-1:] != (pattern.nnz,):
        raise ValueError(f"values {values.shape} do not match pattern nnz "
                         f"{pattern.nnz}")
    rows = pattern.rows
    out_data = _segment_sum_last(values.data, pattern.indptr,
                                 pattern.shape[0])

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(_unbroadcast(grad[..., rows], values.shape))

    return values._make_child(out_data, (values,), backward)


def sparse_gather(node_values: ArrayLike, pattern: SparsePattern,
                  axis: str = "row") -> Tensor:
    """Broadcast per-node values onto edges: ``(..., n) → (..., nnz)``.

    ``axis="row"`` gathers the source-row value of each edge (the sparse
    form of ``vec.unsqueeze(-1)`` against the adjacency); ``axis="col"``
    gathers the column value (``vec.unsqueeze(-2)``).  Backward is the
    matching segment sum over the (transposed) CSR structure.
    """
    node_values = ensure_tensor(node_values)
    if axis == "row":
        index = pattern.rows
        seg_indptr, seg_size = pattern.indptr, pattern.shape[0]
        seg_perm = None
        expected = pattern.shape[0]
    elif axis == "col":
        index = pattern.indices
        seg_indptr, _, seg_perm = pattern.transpose_data()
        seg_size = pattern.shape[1]
        expected = pattern.shape[1]
    else:
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    if node_values.shape[-1] != expected:
        raise ValueError(f"node values {node_values.shape} do not match "
                         f"pattern {pattern.shape} along {axis}s")
    out_data = node_values.data[..., index]

    def backward(grad: np.ndarray) -> None:
        if node_values.requires_grad:
            # Segment-sum the edge gradient per node; the column variant
            # reorders into transposed-CSR order first so segments are
            # contiguous.
            if seg_perm is not None:
                grad = grad[..., seg_perm]
            summed = _segment_sum_last(grad, seg_indptr, seg_size)
            node_values._accumulate(_unbroadcast(summed, node_values.shape))

    return node_values._make_child(out_data, (node_values,), backward)
