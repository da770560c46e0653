"""Plain-data CSR matrix type: construction, conversion, kernel access.

:class:`CSRMatrix` is the autograd-free face of the sparse subsystem —
row-pointer / column-index / value storage with converters from dense and
COO layouts.  It shares the kernel backend of :mod:`repro.tensor.sparse`
(SciPy's C CSR matmul), and bridges into the autograd layer via
:meth:`CSRMatrix.to_sparse_tensor`.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ..tensor.sparse import SparsePattern, SparseTensor, _csr_matmul


class CSRMatrix:
    """A 2-D sparse matrix in compressed-sparse-row form.

    Attributes
    ----------
    indptr:
        ``(n_rows + 1,)`` row pointers into ``indices``/``data``.
    indices:
        ``(nnz,)`` column index of each stored value, row-major with
        ascending columns inside each row.
    data:
        ``(nnz,)`` stored values, float64.
    shape:
        ``(n_rows, n_cols)``.
    """

    __slots__ = ("pattern", "data")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, shape: Tuple[int, int]):
        self.pattern = SparsePattern(indptr, indices, shape)
        data = np.asarray(data, dtype=np.float64)
        if data.shape != (self.pattern.nnz,):
            raise ValueError(f"data shape {data.shape} does not match "
                             f"{self.pattern.nnz} stored indices")
        self.data = data

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray,
                   threshold: float = 0.0) -> "CSRMatrix":
        """Sparsify a dense 2-D array, dropping ``|x| <= threshold``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        mask = np.abs(dense) > threshold
        pattern = SparsePattern.from_mask(mask)
        return cls(pattern.indptr, pattern.indices,
                   dense[pattern.rows, pattern.indices], dense.shape)

    @classmethod
    def with_pattern(cls, pattern: SparsePattern,
                     data: np.ndarray) -> "CSRMatrix":
        """Pair an already-validated pattern with a float64 value array.

        The fast path for structure-preserving value updates (the
        streaming delta), which would otherwise re-validate the same
        pattern every tick; the pattern's cached row expansion and
        transpose carry over.
        """
        if data.shape != (pattern.nnz,):
            raise ValueError(f"data shape {data.shape} does not match "
                             f"{pattern.nnz} stored indices")
        matrix = cls.__new__(cls)
        matrix.pattern = pattern
        matrix.data = data
        return matrix

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 shape: Tuple[int, int]) -> "CSRMatrix":
        """Build from coordinate triples; duplicate coordinates are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape) or rows.ndim != 1:
            raise ValueError("rows, cols and data must be equal-length 1-D")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows
                          or cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError(f"coordinates out of range for shape {shape}")
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        if rows.size:
            first = np.concatenate([[True], (np.diff(rows) != 0)
                                    | (np.diff(cols) != 0)])
            starts = np.flatnonzero(first)
            rows, cols = rows[starts], cols[starts]
            data = np.add.reduceat(data, starts)
        counts = np.bincount(rows, minlength=n_rows)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(indptr, cols, data, (n_rows, n_cols))

    # -- views ----------------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        return self.pattern.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.pattern.indices

    @property
    def shape(self) -> Tuple[int, int]:
        return self.pattern.shape

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def density(self) -> float:
        return self.pattern.density

    # -- conversion -----------------------------------------------------
    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.pattern.rows, self.pattern.indices] = self.data
        return dense

    def to_sparse_tensor(self) -> SparseTensor:
        """Bridge into the autograd layer (shares the pattern arrays)."""
        return SparseTensor.from_csr(self)

    def transpose(self) -> "CSRMatrix":
        t_indptr, t_indices, perm = self.pattern.transpose_data()
        return CSRMatrix(t_indptr, t_indices, self.data[perm],
                         (self.shape[1], self.shape[0]))

    @property
    def T(self) -> "CSRMatrix":
        return self.transpose()

    # -- arithmetic -----------------------------------------------------
    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` for a dense ``(n_cols, C)`` (or batched) array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim == 1:
            return _csr_matmul(self.pattern, self.data,
                               dense[:, None])[..., 0]
        return _csr_matmul(self.pattern, self.data, dense)

    def __matmul__(self, dense: Union[np.ndarray, list]) -> np.ndarray:
        return self.matmul(np.asarray(dense))

    def __repr__(self) -> str:
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"density={self.density:.4f})")
