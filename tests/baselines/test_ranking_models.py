"""Gradient ranking/regression baselines: LSTM, SFM, RSR, RT-GAT, STHAN-SR."""

import numpy as np
import pytest

from repro.baselines import (LSTMScorer, RSR, RTGAT, SFMScorer, STHANSR,
                             hyperedges_from_relations)
from repro.baselines.sthan import HawkesAttention, HypergraphConv
from repro.graph import RelationMatrix
from repro.tensor import Tensor, no_grad


def relations(n=6):
    return RelationMatrix(n, ["industry:a", "wiki:b"], [
        (0, 1, 0), (1, 2, 0), (2, 3, 1), (4, 5, 0),
    ])


def window(rng, t=6, n=6, d=4):
    return Tensor(rng.standard_normal((t, n, d)))


class TestSequentialScorers:
    @pytest.mark.parametrize("cls", [LSTMScorer, SFMScorer])
    def test_scores_shape(self, cls, rng):
        model = cls(num_features=4, hidden_size=8, rng=rng)
        assert model(window(rng)).shape == (6,)

    @pytest.mark.parametrize("cls", [LSTMScorer, SFMScorer])
    def test_rank_validation(self, cls, rng):
        model = cls(num_features=4, hidden_size=8, rng=rng)
        with pytest.raises(ValueError):
            model(Tensor(rng.standard_normal((6, 4))))

    def test_stocks_are_independent(self, rng):
        """Relation-blind scorers: one stock's score ignores the others."""
        model = LSTMScorer(num_features=4, hidden_size=8, rng=rng)
        x = rng.standard_normal((6, 6, 4))
        with no_grad():
            base = model(Tensor(x)).data.copy()
            bumped = x.copy()
            bumped[:, 2, :] += 10.0
            out = model(Tensor(bumped)).data
        others = [i for i in range(6) if i != 2]
        assert np.allclose(out[others], base[others])
        assert not np.isclose(out[2], base[2])

    def test_gradients_flow(self, rng):
        model = SFMScorer(num_features=4, hidden_size=6, rng=rng)
        (model(window(rng)) ** 2).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name


class TestRSR:
    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_scores_shape(self, mode, rng):
        model = RSR(relations(), hidden_size=8, mode=mode, rng=rng)
        assert model(window(rng)).shape == (6,)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            RSR(relations(), mode="magic")

    def test_neighbor_information_flows(self, rng):
        model = RSR(relations(), hidden_size=8, mode="explicit", rng=rng)
        model.eval()
        x = rng.standard_normal((6, 6, 4))
        with no_grad():
            base = model(Tensor(x)).data.copy()
            bumped = x.copy()
            bumped[:, 1, :] += 5.0     # neighbor of stock 0
            out = model(Tensor(bumped)).data
        assert not np.isclose(out[0], base[0])

    def test_strengths_rows_are_distributions(self, rng):
        model = RSR(relations(), hidden_size=8, mode="implicit", rng=rng)
        embeddings = Tensor(rng.standard_normal((6, 8)))
        strengths = model._strengths(embeddings).data
        assert np.allclose(strengths.sum(axis=1), 1.0)
        # Non-neighbors get (numerically) zero strength.
        assert strengths[0, 3] < 1e-6

    def test_gradients_reach_relation_weights(self, rng):
        model = RSR(relations(), hidden_size=6, mode="explicit", rng=rng)
        (model(window(rng)) ** 2).sum().backward()
        assert model.rel_weight.grad is not None
        assert np.isfinite(model.rel_weight.grad).all()

    @pytest.mark.parametrize("mode", ["explicit", "implicit"])
    def test_all_params_get_grads(self, mode, rng):
        model = RSR(relations(), hidden_size=6, mode=mode, rng=rng)
        (model(window(rng)) ** 2).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name


class TestRTGAT:
    def test_scores_shape(self, rng):
        model = RTGAT(relations(), filters=8, n_heads=2, rng=rng)
        assert model(window(rng)).shape == (6,)

    def test_unrelated_stock_isolated(self, rng):
        rel = RelationMatrix(5, ["t"], [(0, 1, 0)])
        model = RTGAT(rel, filters=4, n_heads=1, dropout=0.0, rng=rng)
        model.eval()
        x = rng.standard_normal((6, 5, 4))
        with no_grad():
            base = model(Tensor(x)).data.copy()
            bumped = x.copy()
            bumped[:, 0, :] += 4.0
            out = model(Tensor(bumped)).data
        assert np.isclose(out[3], base[3])       # not connected to 0
        assert not np.isclose(out[1], base[1])   # attends to 0

    def test_multi_layer(self, rng):
        model = RTGAT(relations(), filters=8, num_layers=2, rng=rng)
        assert model(window(rng)).shape == (6,)

    def test_gradients_flow(self, rng):
        model = RTGAT(relations(), filters=4, dropout=0.0, rng=rng)
        (model(window(rng)) ** 2).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name


class TestSTHANSR:
    def test_hyperedges_from_relations(self):
        incidence = hyperedges_from_relations(relations())
        # type 0 links stocks {0,1,2} and {4,5}; type 1 links {2,3}
        assert incidence.shape == (6, 2)
        assert incidence[:, 0].sum() == 5.0
        assert incidence[:, 1].sum() == 2.0

    def test_empty_hypergraph_rejected(self):
        rel = RelationMatrix(4, ["t"])
        with pytest.raises(ValueError):
            hyperedges_from_relations(rel)

    def test_scores_shape(self, rng):
        model = STHANSR(relations(), hidden_size=8, rng=rng)
        assert model(window(rng)).shape == (6,)

    def test_hawkes_weights_pool_over_time(self, rng):
        hawkes = HawkesAttention(4, rng=rng)
        states = Tensor(rng.standard_normal((3, 7, 4)))
        assert hawkes(states).shape == (3, 4)

    def test_hawkes_decay_prefers_recent(self, rng):
        hawkes = HawkesAttention(4, rng=rng)
        hawkes.raw_decay.data[:] = 3.0     # strong decay
        # With uniform content scores, decay should put almost all weight
        # on the final step.
        hawkes.context.data[:] = 0.0       # content scores all equal
        states = np.zeros((1, 6, 4))
        states[0, 0] = 100.0               # old step has huge features
        states[0, -1] = 1.0
        pooled = hawkes(Tensor(states)).data
        assert np.allclose(pooled[0], states[0, -1], atol=0.1)

    def test_hypergraph_conv_mixes_members(self, rng):
        incidence = np.array([[1.0], [1.0], [0.0]])
        conv = HypergraphConv(incidence, 2, 2, rng=rng)
        x = rng.standard_normal((3, 2))
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0] += 5.0
        out = conv(Tensor(x2)).data
        assert not np.allclose(out[1], base[1])   # shares hyperedge with 0
        assert np.allclose(out[2], base[2])       # isolated

    def test_gradients_flow(self, rng):
        model = STHANSR(relations(), hidden_size=6, rng=rng)
        (model(window(rng)) ** 2).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
