"""Dense↔sparse dispatch of the graph layers (ISSUE-2 satellites a/c).

The vectorized multi-head :class:`GraphAttention` is checked against a
faithful reimplementation of the original per-head Python loop; the sparse
segment-softmax path is checked against the dense masked softmax; and
:class:`GraphConv` is checked to propagate identically through ``spmm``
and dense matmul.
"""

import numpy as np
import pytest

from repro.baselines.rtgat import RTGAT
from repro.graph import RelationMatrix
from repro.nn import GraphAttention, GraphConv, set_graph_mode
from repro.tensor import Tensor
from repro.tensor.sparse import SparseTensor


def reference_attention(layer, x, mask):
    """The pre-vectorization per-head loop, kept as a numerical oracle."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    mask = np.asarray(mask, dtype=bool) | np.eye(n, dtype=bool)
    neg_inf = np.where(mask, 0.0, -1e9)
    heads = []
    for h in range(layer.n_heads):
        proj = x @ layer.weight.data[h].T                     # (..., N, d)
        src = proj @ layer.attn_src.data[h]                   # (..., N)
        dst = proj @ layer.attn_dst.data[h]
        logits = src[..., :, None] + dst[..., None, :]
        slope = layer.negative_slope
        logits = np.where(logits > 0, logits, slope * logits) + neg_inf
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        alpha = exp / exp.sum(axis=-1, keepdims=True)
        heads.append(alpha @ proj)
    if layer.concat_heads:
        out = np.concatenate(heads, axis=-1)
    else:
        out = np.mean(heads, axis=0)
    return out + layer.bias.data


def mask_for(n, rng, density=0.3):
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    return mask | mask.T


class TestVectorizedAttention:
    @pytest.mark.parametrize("shape", [(9, 5), (4, 9, 5), (2, 3, 9, 5)])
    @pytest.mark.parametrize("concat_heads", [True, False])
    def test_matches_per_head_loop(self, rng, shape, concat_heads):
        layer = GraphAttention(5, 8, n_heads=2, concat_heads=concat_heads,
                               graph_mode="dense",
                               rng=np.random.default_rng(0))
        x = rng.standard_normal(shape)
        mask = mask_for(shape[-2], rng)
        out = layer(Tensor(x), mask).data
        expected = reference_attention(layer, x, mask)
        assert out.shape == expected.shape
        assert np.allclose(out, expected, atol=1e-12)

    def test_sparse_matches_dense(self, rng):
        x = rng.standard_normal((3, 10, 6))
        mask = mask_for(10, rng, density=0.2)
        outs = []
        for mode in ("dense", "sparse"):
            layer = GraphAttention(6, 8, n_heads=4, graph_mode=mode,
                                   rng=np.random.default_rng(1))
            outs.append(layer(Tensor(x), mask).data)
        assert np.allclose(outs[0], outs[1], atol=1e-12)

    def test_sparse_matches_dense_gradients(self, rng):
        x = rng.standard_normal((2, 8, 4))
        mask = mask_for(8, rng)
        grads = []
        for mode in ("dense", "sparse"):
            layer = GraphAttention(4, 6, n_heads=2, graph_mode=mode,
                                   rng=np.random.default_rng(2))
            inp = Tensor(x.copy(), requires_grad=True)
            (layer(inp, mask) ** 2.0).sum().backward()
            grads.append([inp.grad.copy()]
                         + [p.grad.copy() for p in layer.parameters()])
        for g_dense, g_sparse in zip(*grads):
            assert np.allclose(g_dense, g_sparse, atol=1e-10)

    def test_isolated_node_attends_to_itself(self, rng):
        # A node with no neighbors must fall back to its self-loop, in
        # both backends, rather than producing NaNs.
        x = rng.standard_normal((5, 3))
        mask = np.zeros((5, 5), dtype=bool)
        for mode in ("dense", "sparse"):
            layer = GraphAttention(3, 4, graph_mode=mode,
                                   rng=np.random.default_rng(3))
            out = layer(Tensor(x), mask).data
            assert np.isfinite(out).all()

    def test_pattern_cached_per_mask_instance(self, rng):
        layer = GraphAttention(3, 4, graph_mode="sparse",
                               rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((6, 3)))
        mask = mask_for(6, rng)
        layer(x, mask)
        layer(x, mask)
        assert len(layer._pattern_cache) == 1


class TestGraphConvDispatch:
    def test_sparse_adjacency_matches_dense(self, rng):
        conv = GraphConv(4, 6, rng=np.random.default_rng(0))
        adj = np.abs(mask_for(7, rng).astype(float))
        x = Tensor(rng.standard_normal((3, 7, 4)))
        dense_out = conv(x, Tensor(adj)).data
        sparse_out = conv(x, SparseTensor.from_dense(adj)).data
        assert np.allclose(dense_out, sparse_out, atol=1e-12)

    def test_sparse_adjacency_gradients(self, rng):
        conv = GraphConv(3, 5, rng=np.random.default_rng(1))
        adj = mask_for(6, rng).astype(float)
        x = rng.standard_normal((6, 3))
        grads = []
        for rep in (Tensor(adj), SparseTensor.from_dense(adj)):
            for p in conv.parameters():
                p.grad = None
            (conv(Tensor(x), rep) ** 2.0).sum().backward()
            grads.append([p.grad.copy() for p in conv.parameters()])
        for g_dense, g_sparse in zip(*grads):
            assert np.allclose(g_dense, g_sparse, atol=1e-10)

    def test_size_mismatch_rejected(self, rng):
        conv = GraphConv(3, 4)
        adj = SparseTensor.from_dense(np.eye(5))
        with pytest.raises(ValueError, match="adjacency size"):
            conv(Tensor(np.ones((4, 3))), adj)


class TestSetGraphMode:
    def test_walks_nested_modules(self):
        rel = RelationMatrix(5, ["industry:a"],
                                        [(0, 1, 0), (2, 3, 0)])
        model = RTGAT(rel, num_features=3, filters=4, n_heads=2,
                      num_layers=2, rng=np.random.default_rng(0))
        touched = set_graph_mode(model, "sparse")
        assert touched == 2      # both attention layers
        for index in range(2):
            assert model._modules[f"attention{index}"].graph_mode == "sparse"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="graph mode"):
            set_graph_mode(GraphConv(2, 2), "blocked")

    def test_rtgat_sparse_matches_dense(self, rng):
        rel = RelationMatrix(8, ["industry:a"], [
            (0, 1, 0), (1, 2, 0), (3, 4, 0), (5, 6, 0), (6, 7, 0)])
        feats = rng.standard_normal((4, 8, 3))
        outs = []
        for mode in ("dense", "sparse"):
            model = RTGAT(rel, num_features=3, filters=4, n_heads=2,
                          dropout=0.0, graph_mode=mode,
                          rng=np.random.default_rng(5))
            model.eval()
            outs.append(model(Tensor(feats)).data)
        assert np.allclose(outs[0], outs[1], atol=1e-10)
