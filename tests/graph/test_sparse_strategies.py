"""Sparse relation strategies: dense↔sparse equivalence and the
normalized-adjacency cache (ISSUE-2 tentpole + satellites b/c)."""

import numpy as np
import pytest

import repro.graph.strategies as strategies_module
from repro.core import RTGCN, TrainConfig, Trainer
from repro.graph import (RelationMatrix, TimeSensitiveStrategy,
                         UniformStrategy, WeightStrategy, adjacency_cache,
                         make_strategy, normalize_sparse_adjacency,
                         normalize_weighted_adjacency,
                         reset_adjacency_cache)
from repro.tensor import Tensor
from repro.tensor.sparse import SparseTensor


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test observes its own global adjacency cache."""
    yield reset_adjacency_cache()
    reset_adjacency_cache()


def relations(n=6):
    return RelationMatrix(n, ["industry:a", "wiki:b"], [
        (0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 4, 1), (4, 5, 0),
    ])


def paired(strategy_name, rng, **kwargs):
    """One dense and one sparse instance with identical parameters."""
    rel = relations()
    dense = make_strategy(strategy_name, rel,
                          rng=np.random.default_rng(3),
                          graph_mode="dense", **kwargs)
    sparse = make_strategy(strategy_name, rel,
                           rng=np.random.default_rng(3),
                           graph_mode="sparse", **kwargs)
    sparse.load_state_dict(dense.state_dict())
    return dense, sparse


# ----------------------------------------------------------------------
# dense ↔ sparse equivalence
# ----------------------------------------------------------------------
class TestNormalizeSparseAdjacency:
    def test_matches_dense_normalization(self, rng):
        # Off-diagonal weighted mask; the dense normalizer adds I itself,
        # the sparse one expects the loop entries stored with value 1.
        n = 7
        mask = relations(n).binary_adjacency()
        weighted = rng.standard_normal((n, n)) * (mask != 0)
        dense = normalize_weighted_adjacency(Tensor(weighted)).data
        sparse = normalize_sparse_adjacency(
            SparseTensor.from_dense(weighted + np.eye(n)))
        assert np.allclose(sparse.to_dense().data, dense, atol=1e-12)

    def test_requires_sparse_tensor(self):
        with pytest.raises(TypeError):
            normalize_sparse_adjacency(Tensor(np.eye(3)))


class TestStrategyEquivalence:
    def test_uniform(self, rng):
        dense, sparse = paired("uniform", rng)
        out = sparse()
        assert isinstance(out, SparseTensor)
        assert np.allclose(out.to_dense().data, dense().data, atol=1e-12)

    def test_weight_forward_and_backward(self, rng):
        dense, sparse = paired("weight", rng)
        dense_out, sparse_out = dense(), sparse()
        assert np.allclose(sparse_out.to_dense().data, dense_out.data,
                           atol=1e-12)
        (dense_out ** 2.0).sum().backward()
        (sparse_out.to_dense() ** 2.0).sum().backward()
        assert np.allclose(dense.weight.grad, sparse.weight.grad, atol=1e-9)
        assert np.allclose(dense.bias.grad, sparse.bias.grad, atol=1e-9)

    def test_time_forward_and_backward(self, rng):
        dense, sparse = paired("time", rng)
        feats = rng.standard_normal((3, 6, 4))
        x_dense = Tensor(feats.copy(), requires_grad=True)
        x_sparse = Tensor(feats.copy(), requires_grad=True)
        dense_out = dense(x_dense)
        sparse_out = sparse(x_sparse)
        assert np.allclose(sparse_out.to_dense().data, dense_out.data,
                           atol=1e-12)
        (dense_out ** 2.0).sum().backward()
        (sparse_out.to_dense() ** 2.0).sum().backward()
        assert np.allclose(dense.weight.grad, sparse.weight.grad, atol=1e-9)
        assert np.allclose(dense.bias.grad, sparse.bias.grad, atol=1e-9)
        assert np.allclose(x_dense.grad, x_sparse.grad, atol=1e-9)

    def test_rtgcn_forward_and_backward(self, rng):
        rel = relations()
        feats = rng.standard_normal((5, 6, 4))
        outs, grads = [], []
        for mode in ("dense", "sparse"):
            model = RTGCN(rel, num_features=4, strategy="time",
                          graph_mode=mode, rng=np.random.default_rng(11))
            x = Tensor(feats.copy(), requires_grad=True)
            out = model(x)
            (out ** 2.0).sum().backward()
            outs.append(out.data)
            grads.append([p.grad.copy() for p in model.parameters()]
                         + [x.grad.copy()])
        assert np.allclose(outs[0], outs[1], atol=1e-10)
        for g_dense, g_sparse in zip(*grads):
            assert np.allclose(g_dense, g_sparse, atol=1e-8)


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_auto_resolves_by_density(self):
        rel = relations()
        # 10 undirected edges + 6 loops over 36 cells ≈ 0.44: stays dense.
        assert UniformStrategy(rel).resolved_mode() == "dense"
        # A generous threshold flips the same graph to the sparse path.
        sparse_auto = UniformStrategy(rel, density_threshold=0.9)
        assert sparse_auto.resolved_mode() == "sparse"
        assert isinstance(sparse_auto(), SparseTensor)

    def test_explicit_modes_override_density(self):
        rel = relations()
        assert UniformStrategy(rel, graph_mode="sparse") \
            .resolved_mode() == "sparse"
        assert UniformStrategy(rel, graph_mode="dense",
                               density_threshold=1.0) \
            .resolved_mode() == "dense"

    def test_invalid_mode_rejected_at_construction(self):
        with pytest.raises(ValueError, match="graph mode"):
            UniformStrategy(relations(), graph_mode="csr")

    def test_trainer_config_forces_mode(self, nasdaq_mini):
        model = RTGCN(nasdaq_mini.relations, num_features=4,
                      strategy="uniform", rng=np.random.default_rng(0))
        config = TrainConfig(epochs=1, graph_mode="sparse")
        Trainer(model, nasdaq_mini, config)
        strategy = model._modules["layer0"].relational.strategy
        assert strategy.graph_mode == "sparse"

    def test_trainer_auto_leaves_model_modes(self, nasdaq_mini):
        model = RTGCN(nasdaq_mini.relations, num_features=4,
                      strategy="uniform", graph_mode="dense",
                      rng=np.random.default_rng(0))
        Trainer(model, nasdaq_mini, TrainConfig(epochs=1))
        strategy = model._modules["layer0"].relational.strategy
        assert strategy.graph_mode == "dense"


# ----------------------------------------------------------------------
# the normalized-adjacency cache (satellite b)
# ----------------------------------------------------------------------
class TestAdjacencyCache:
    def test_normalize_once_per_distinct_graph(self, monkeypatch):
        """Regression: N forwards over one static graph normalize once."""
        calls = []
        original = strategies_module.normalize_adjacency
        monkeypatch.setattr(
            strategies_module, "normalize_adjacency",
            lambda *a, **k: calls.append(1) or original(*a, **k))
        rel = relations()
        first = UniformStrategy(rel)
        for _ in range(5):
            first()
        # A *second* model over the same relation set shares the entry.
        second = UniformStrategy(rel)
        second()
        assert len(calls) == 1

    def test_distinct_graphs_get_distinct_entries(self):
        a, b = relations(6), relations(7)
        UniformStrategy(a)()
        before = adjacency_cache().stats()["entries"]
        UniformStrategy(b)()
        assert adjacency_cache().stats()["entries"] == before + 1

    def test_structure_computed_once_across_strategies(self):
        rel = relations()
        WeightStrategy(rel, graph_mode="sparse")()
        misses = adjacency_cache().misses
        # The time strategy reuses the same CSR structure entry.
        s = TimeSensitiveStrategy(rel, graph_mode="sparse")
        s(Tensor(np.random.default_rng(0).standard_normal((2, 6, 3))))
        assert adjacency_cache().hits >= 1
        assert adjacency_cache().misses == misses

    def test_time_sensitive_forward_keeps_no_per_step_entry(self, rng):
        """A dense forward stores nothing in the global cache: the cache
        must not pin a (T, N, N) adjacency stack between forwards."""
        s = TimeSensitiveStrategy(relations(), graph_mode="dense")
        s(Tensor(rng.standard_normal((2, 6, 3))))
        assert len(adjacency_cache()) == 0

    def test_sparse_mode_never_builds_the_dense_tensor(self, rng):
        s = TimeSensitiveStrategy(relations(), graph_mode="sparse")
        s(Tensor(rng.standard_normal((2, 6, 3))))
        assert s._relation_tensor is None and s._mask_tensor is None
        s.graph_mode = "dense"
        s(Tensor(rng.standard_normal((2, 6, 3))))
        assert s._relation_tensor.shape == (6, 6, 2)

    def test_cache_token_tracks_content_not_identity(self):
        a, b = relations(), relations()
        assert a is not b
        assert a.cache_token() == b.cache_token()
        different = RelationMatrix(
            6, ["industry:a", "wiki:b"], [(0, 1, 0), (1, 2, 1)])
        assert different.cache_token() != a.cache_token()

    def test_lru_bound_and_reset(self):
        cache = reset_adjacency_cache()
        cache.max_entries = 2
        for i in range(4):
            cache.put(("k", i), i)
        assert len(cache) == 2
        assert ("k", 3) in cache and ("k", 0) not in cache
        assert reset_adjacency_cache() is adjacency_cache()
        assert len(adjacency_cache()) == 0
