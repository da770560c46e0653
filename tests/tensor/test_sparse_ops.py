"""Tests for the CSR sparse primitives (`repro.tensor.sparse` / `repro.sparse`).

Covers spmm gradcheck for *both* the dense-input and edge-value
gradients, CSR conversion round-trips, and the empty-row / isolated-node
edge case.
"""

import numpy as np
import pytest

from repro.sparse import CSRMatrix
from repro.tensor import Tensor, gradcheck
from repro.tensor.sparse import (DEFAULT_DENSITY_THRESHOLD, SparsePattern,
                                 SparseTensor, resolve_graph_mode, sddmm,
                                 sparse_gather, sparse_segment_sum, spmm)


@pytest.fixture
def graph(rng):
    """A small rectangular sparse matrix with an empty row and column."""
    dense = (rng.random((7, 6)) < 0.4) * rng.standard_normal((7, 6))
    dense[2] = 0.0        # isolated node on the row side
    dense[:, 3] = 0.0     # isolated node on the column side
    return dense


@pytest.fixture(params=["scipy"])
def kernel_backend(request):
    """The CSR kernel backend: SciPy's, the only one (keeps test ids)."""
    return request.param


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------
class TestSparsePattern:
    def test_from_mask_roundtrip(self, graph):
        pattern = SparsePattern.from_mask(graph != 0)
        dense = np.zeros_like(graph)
        dense[pattern.rows, pattern.indices] = graph[pattern.rows,
                                                     pattern.indices]
        assert np.array_equal(dense, graph)
        assert pattern.nnz == int((graph != 0).sum())
        assert pattern.density == pattern.nnz / graph.size

    def test_transpose_structure(self, graph):
        pattern = SparsePattern.from_mask(graph != 0)
        t_indptr, t_indices, perm = pattern.transpose_data()
        values = graph[pattern.rows, pattern.indices]
        transposed = SparsePattern(t_indptr, t_indices,
                                   (graph.shape[1], graph.shape[0]))
        dense_t = np.zeros(graph.T.shape)
        dense_t[transposed.rows, transposed.indices] = values[perm]
        assert np.array_equal(dense_t, graph.T)

    def test_validates_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            SparsePattern(np.array([0, 2]), np.array([0, 1]), (2, 2))
        with pytest.raises(ValueError, match="non-decreasing"):
            SparsePattern(np.array([0, 2, 1]), np.array([0, 1]), (2, 2))
        with pytest.raises(ValueError, match="out of range"):
            SparsePattern(np.array([0, 1, 2]), np.array([0, 5]), (2, 2))


class TestCSRMatrix:
    def test_dense_roundtrip(self, graph):
        csr = CSRMatrix.from_dense(graph)
        assert np.allclose(csr.to_dense(), graph)
        assert np.allclose(csr.T.to_dense(), graph.T)

    def test_matmul_matches_dense(self, graph, rng, kernel_backend):
        csr = CSRMatrix.from_dense(graph)
        x = rng.standard_normal((graph.shape[1], 4))
        assert np.allclose(csr @ x, graph @ x)
        vec = rng.standard_normal(graph.shape[1])
        assert np.allclose(csr @ vec, graph @ vec)

    def test_from_coo_sums_duplicates(self):
        csr = CSRMatrix.from_coo(np.array([0, 0, 2, 1]),
                                 np.array([1, 1, 0, 3]),
                                 np.array([1.0, 2.0, 3.0, 4.0]), (3, 4))
        expected = np.zeros((3, 4))
        expected[0, 1] = 3.0
        expected[2, 0] = 3.0
        expected[1, 3] = 4.0
        assert np.allclose(csr.to_dense(), expected)
        assert csr.nnz == 3

    def test_threshold_drops_small_entries(self):
        dense = np.array([[0.5, 1e-9], [0.0, -2.0]])
        csr = CSRMatrix.from_dense(dense, threshold=1e-6)
        assert csr.nnz == 2

    def test_bridges_to_autograd_layer(self, graph):
        sparse = CSRMatrix.from_dense(graph).to_sparse_tensor()
        assert isinstance(sparse, SparseTensor)
        assert np.allclose(sparse.to_dense().data, graph)


# ----------------------------------------------------------------------
# spmm
# ----------------------------------------------------------------------
class TestSpmm:
    def test_matches_dense_matmul(self, graph, rng, kernel_backend):
        sparse = SparseTensor.from_dense(graph)
        x = rng.standard_normal((graph.shape[1], 4))
        assert np.allclose(spmm(sparse, Tensor(x)).data, graph @ x)

    def test_batched_dense_operand(self, graph, rng, kernel_backend):
        sparse = SparseTensor.from_dense(graph)
        x = rng.standard_normal((3, graph.shape[1], 4))
        assert np.allclose(spmm(sparse, Tensor(x)).data, graph @ x)

    def test_batched_edge_values(self, graph, rng, kernel_backend):
        pattern = SparsePattern.from_mask(graph != 0)
        values = rng.standard_normal((3, pattern.nnz))
        x = rng.standard_normal((3, graph.shape[1], 4))
        out = spmm(SparseTensor(pattern, Tensor(values)), Tensor(x)).data
        for t in range(3):
            dense = np.zeros_like(graph)
            dense[pattern.rows, pattern.indices] = values[t]
            assert np.allclose(out[t], dense @ x[t])

    def test_gradcheck_dense_and_value_grads(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        values = Tensor(rng.standard_normal(pattern.nnz), requires_grad=True)
        x = Tensor(rng.standard_normal((graph.shape[1], 3)),
                   requires_grad=True)
        assert gradcheck(
            lambda: (spmm(SparseTensor(pattern, values), x) ** 2.0).sum(),
            [values, x])

    def test_gradcheck_batched_values(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        values = Tensor(rng.standard_normal((2, pattern.nnz)),
                        requires_grad=True)
        x = Tensor(rng.standard_normal((graph.shape[1], 3)),
                   requires_grad=True)
        assert gradcheck(
            lambda: (spmm(SparseTensor(pattern, values), x) ** 2.0).sum(),
            [values, x])

    def test_value_grad_matches_dense_reference(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        x = rng.standard_normal((graph.shape[1], 4))
        values = Tensor(graph[pattern.rows, pattern.indices],
                        requires_grad=True)
        (spmm(SparseTensor(pattern, values), Tensor(x)) ** 2.0).sum() \
            .backward()
        dense = Tensor(graph, requires_grad=True)
        ((dense @ Tensor(x)) ** 2.0).sum().backward()
        assert np.allclose(values.grad,
                           dense.grad[pattern.rows, pattern.indices])

    def test_empty_rows_and_isolated_nodes(self, graph, rng, kernel_backend):
        # Row 2 stores nothing: its output must be exactly zero and its
        # gradient contribution must vanish, not corrupt neighbors.
        sparse = SparseTensor.from_dense(graph)
        x = Tensor(rng.standard_normal((graph.shape[1], 3)),
                   requires_grad=True)
        out = spmm(sparse, x)
        assert np.all(out.data[2] == 0.0)
        out.sum().backward()
        # Column 3 is stored nowhere, so nothing propagates into it.
        assert np.all(x.grad[3] == 0.0)

    def test_fully_empty_matrix(self, kernel_backend):
        pattern = SparsePattern.from_mask(np.zeros((3, 3), dtype=bool))
        sparse = SparseTensor(pattern, Tensor(np.zeros(0)))
        out = spmm(sparse, Tensor(np.ones((3, 2))))
        assert np.all(out.data == 0.0)

    def test_shape_mismatch_raises(self, graph):
        sparse = SparseTensor.from_dense(graph)
        with pytest.raises(ValueError, match="cannot multiply"):
            spmm(sparse, Tensor(np.ones((graph.shape[1] + 1, 2))))
        with pytest.raises(TypeError, match="SparseTensor"):
            spmm(Tensor(graph), Tensor(np.ones((graph.shape[1], 2))))


# ----------------------------------------------------------------------
# sddmm / segment ops
# ----------------------------------------------------------------------
class TestSampledAndSegmentOps:
    def test_sddmm_matches_dense(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        a = rng.standard_normal((graph.shape[0], 5))
        b = rng.standard_normal((graph.shape[1], 5))
        out = sddmm(pattern, Tensor(a), Tensor(b)).data
        assert np.allclose(out, (a @ b.T)[pattern.rows, pattern.indices])

    def test_sddmm_gradcheck(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        a = Tensor(rng.standard_normal((graph.shape[0], 3)),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((graph.shape[1], 3)),
                   requires_grad=True)
        assert gradcheck(lambda: (sddmm(pattern, a, b) ** 2.0).sum(), [a, b])

    def test_sddmm_batched(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        a = rng.standard_normal((4, graph.shape[0], 3))
        b = rng.standard_normal((4, graph.shape[1], 3))
        out = sddmm(pattern, Tensor(a), Tensor(b)).data
        for t in range(4):
            expected = (a[t] @ b[t].T)[pattern.rows, pattern.indices]
            assert np.allclose(out[t], expected)

    def test_segment_sum_matches_dense_row_sum(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        values = graph[pattern.rows, pattern.indices]
        out = sparse_segment_sum(Tensor(values), pattern).data
        assert np.allclose(out, graph.sum(axis=1))
        assert out[2] == 0.0        # empty row sums to zero

    def test_segment_sum_gradcheck(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        values = Tensor(rng.standard_normal((2, pattern.nnz)),
                        requires_grad=True)
        assert gradcheck(
            lambda: (sparse_segment_sum(values * values, pattern)
                     ** 2.0).sum(), [values])

    def test_gather_row_and_col_gradcheck(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        row_vals = Tensor(rng.standard_normal(graph.shape[0]),
                          requires_grad=True)
        col_vals = Tensor(rng.standard_normal(graph.shape[1]),
                          requires_grad=True)
        assert gradcheck(
            lambda: (sparse_gather(row_vals, pattern, axis="row")
                     * sparse_gather(col_vals, pattern, axis="col")).sum(),
            [row_vals, col_vals])

    def test_gather_matches_dense_broadcast(self, graph, rng):
        pattern = SparsePattern.from_mask(graph != 0)
        vec = rng.standard_normal(graph.shape[0])
        gathered = sparse_gather(Tensor(vec), pattern, axis="row").data
        assert np.allclose(gathered, vec[pattern.rows])


# ----------------------------------------------------------------------
# SparseTensor + dispatch rule
# ----------------------------------------------------------------------
class TestSparseTensor:
    def test_dense_roundtrip_with_gradient(self, graph):
        dense = Tensor(graph, requires_grad=True)
        sparse = SparseTensor.from_dense(dense)
        restored = sparse.to_dense()
        assert np.allclose(restored.data, graph)
        restored.sum().backward()
        assert np.allclose(dense.grad, (graph != 0).astype(float))

    def test_batched_values_share_pattern(self, graph, rng):
        stacked = np.stack([graph, 2.0 * graph])
        sparse = SparseTensor.from_dense(stacked)
        assert sparse.shape == stacked.shape
        assert np.allclose(sparse.to_dense().data, stacked)

    def test_value_count_validated(self, graph):
        pattern = SparsePattern.from_mask(graph != 0)
        with pytest.raises(ValueError, match="nnz"):
            SparseTensor(pattern, Tensor(np.zeros(pattern.nnz + 1)))

    def test_resolve_graph_mode(self):
        assert resolve_graph_mode("dense", 0.0) == "dense"
        assert resolve_graph_mode("sparse", 1.0) == "sparse"
        below = DEFAULT_DENSITY_THRESHOLD / 2
        above = DEFAULT_DENSITY_THRESHOLD * 2
        assert resolve_graph_mode("auto", below) == "sparse"
        assert resolve_graph_mode("auto", above) == "dense"
        assert resolve_graph_mode("auto", above, threshold=1.0) == "sparse"
        with pytest.raises(ValueError, match="graph mode"):
            resolve_graph_mode("blocked", 0.5)
