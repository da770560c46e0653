"""Adjacency normalization (Eq. 1–2) and relation-aware strategies (Eq. 3–5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (RelationMatrix, TimeSensitiveStrategy,
                         UniformStrategy, WeightStrategy, add_self_loops,
                         make_strategy, normalize_adjacency,
                         normalize_weighted_adjacency)
from repro.tensor import Tensor, gradcheck


def relations(n=5):
    return RelationMatrix(n, ["industry:a", "wiki:b"], [
        (0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 4, 1),
    ])


class TestNormalization:
    def test_self_loops_added(self):
        adj = np.zeros((3, 3))
        assert np.allclose(add_self_loops(adj), np.eye(3))

    def test_symmetric_output(self):
        adj = relations().binary_adjacency()
        out = normalize_adjacency(adj)
        assert np.allclose(out, out.T)

    def test_isolated_node_keeps_self_loop(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        out = normalize_adjacency(adj)
        assert np.isclose(out[2, 2], 1.0)   # degree-1 self loop

    def test_spectral_radius_bounded(self):
        adj = relations(8).binary_adjacency()
        out = normalize_adjacency(adj)
        eigenvalues = np.linalg.eigvalsh(out)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_renormalization_trick_differs_from_pre_trick(self):
        adj = relations().binary_adjacency()
        trick = normalize_adjacency(adj, add_loops=True)
        pre = normalize_adjacency(adj, add_loops=False)
        assert not np.allclose(trick, pre)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.zeros((2, 3)))

    def test_weighted_normalization_handles_negative(self):
        adj = Tensor(np.array([[0.0, -2.0], [-2.0, 0.0]]))
        out = normalize_weighted_adjacency(adj)
        assert np.isfinite(out.data).all()

    def test_weighted_normalization_gradients(self, rng):
        adj = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gradcheck(lambda: normalize_weighted_adjacency(adj).sum(), [adj])

    def test_weighted_matches_static_on_binary(self):
        adj = relations().binary_adjacency()
        static = normalize_adjacency(adj)
        dynamic = normalize_weighted_adjacency(Tensor(adj)).data
        assert np.allclose(static, dynamic, atol=1e-6)


class TestUniformStrategy:
    def test_adjacency_is_constant(self):
        s = UniformStrategy(relations())
        a1, a2 = s(), s()
        assert a1 is a2          # precomputed

    def test_treats_all_relations_equally(self):
        rel = relations()
        s = UniformStrategy(rel)
        adj = s().data
        # (0,1) single industry vs (0,4) single wiki: same weight pattern
        # because Eq. 3 only checks sum > 0.
        norm = adj
        assert norm[0, 1] > 0 and norm[0, 4] > 0

    def test_no_parameters(self):
        assert list(UniformStrategy(relations()).parameters()) == []

    def test_not_time_varying(self):
        assert not UniformStrategy(relations()).time_varying


class TestWeightStrategy:
    def test_has_k_plus_one_parameters(self):
        s = WeightStrategy(relations())
        assert s.weight.shape == (2,)
        assert s.bias.shape == (1,)

    def test_unrelated_pairs_stay_zero(self):
        s = WeightStrategy(relations())
        raw = s.raw_adjacency().data
        assert raw[0, 2] == 0.0   # no relation between 0 and 2
        assert raw[0, 1] != 0.0

    def test_different_relations_get_different_weights(self):
        s = WeightStrategy(relations())
        s.weight.data[:] = [2.0, 5.0]
        s.bias.data[:] = 0.0
        raw = s.raw_adjacency().data
        assert np.isclose(raw[0, 1], 2.0)   # industry edge
        assert np.isclose(raw[2, 3], 5.0)   # wiki edge

    def test_gradients_reach_weights(self):
        s = WeightStrategy(relations())
        gradcheck(lambda: s().sum(), [s.weight, s.bias])

    def test_shared_across_time(self):
        # forward takes no features; output shape is static (N, N)
        s = WeightStrategy(relations())
        assert s().shape == (5, 5)


class TestTimeSensitiveStrategy:
    def test_per_step_adjacency(self, rng):
        s = TimeSensitiveStrategy(relations())
        feats = Tensor(rng.standard_normal((7, 5, 3)))
        assert s(feats).shape == (7, 5, 5)

    def test_steps_differ(self, rng):
        s = TimeSensitiveStrategy(relations())
        feats = Tensor(rng.standard_normal((3, 5, 4)))
        adj = s(feats).data
        assert not np.allclose(adj[0], adj[1])

    def test_requires_features(self):
        with pytest.raises(ValueError):
            TimeSensitiveStrategy(relations())()

    def test_feature_rank_validated(self, rng):
        s = TimeSensitiveStrategy(relations())
        with pytest.raises(ValueError):
            s(Tensor(rng.standard_normal((5, 3))))

    def test_node_count_validated(self, rng):
        s = TimeSensitiveStrategy(relations())
        with pytest.raises(ValueError):
            s(Tensor(rng.standard_normal((3, 9, 4))))

    def test_correlation_scales_with_features(self, rng):
        s = TimeSensitiveStrategy(relations())
        s.weight.data[:] = 1.0
        s.bias.data[:] = 0.0
        # Identical features for the related pair -> high correlation term.
        feats = np.zeros((1, 5, 2))
        feats[0, 0] = feats[0, 1] = [3.0, 3.0]
        adj_high = s(Tensor(feats)).data[0]
        feats[0, 1] = [0.01, 0.01]
        adj_low = s(Tensor(feats)).data[0]
        assert abs(adj_high[0, 1]) > abs(adj_low[0, 1])

    def test_gradients_reach_weights(self, rng):
        s = TimeSensitiveStrategy(relations())
        feats = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
        gradcheck(lambda: s(feats).sum(), [feats, s.weight, s.bias])


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("uniform", UniformStrategy), ("U", UniformStrategy),
        ("weight", WeightStrategy), ("W", WeightStrategy),
        ("time", TimeSensitiveStrategy), ("T", TimeSensitiveStrategy),
        ("time-sensitive", TimeSensitiveStrategy),
    ])
    def test_names(self, name, cls):
        assert isinstance(make_strategy(name, relations()), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("mystery", relations())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_normalized_rows_of_connected_graph(n, seed):
    """Rows of D̃^{-1/2}ÃD̃^{-1/2} are non-negative and bounded by 1."""
    rng = np.random.default_rng(seed)
    adj = (rng.uniform(size=(n, n)) > 0.5).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    out = normalize_adjacency(adj)
    assert np.all(out >= 0)
    assert np.all(out <= 1.0 + 1e-12)
    assert np.allclose(out, out.T)
