"""RT-GCN model: shapes, strategies, ablations, causality, gradient flow."""

import numpy as np
import pytest

from repro.core import (RTGCN, RelationalGraphConvolution,
                        TemporalConvolution)
from repro.graph import RelationMatrix, make_strategy
from repro.tensor import Tensor, no_grad


def relations(n=6):
    return RelationMatrix(n, ["industry:a", "wiki:b"], [
        (0, 1, 0), (1, 2, 0), (2, 3, 1), (4, 5, 0),
    ])


def features(rng, t=8, n=6, d=4):
    return Tensor(rng.standard_normal((t, n, d)))


class TestRelationalGraphConvolution:
    def test_static_strategy_shape(self, rng):
        conv = RelationalGraphConvolution(
            make_strategy("uniform", relations()), 4, 10)
        assert conv(features(rng)).shape == (8, 6, 10)

    def test_time_strategy_shape(self, rng):
        conv = RelationalGraphConvolution(
            make_strategy("time", relations()), 4, 10)
        assert conv(features(rng)).shape == (8, 6, 10)

    def test_output_nonnegative_after_relu(self, rng):
        conv = RelationalGraphConvolution(
            make_strategy("weight", relations()), 4, 5)
        assert np.all(conv(features(rng)).data >= 0)

    def test_rank_validated(self, rng):
        conv = RelationalGraphConvolution(
            make_strategy("uniform", relations()), 4, 5)
        with pytest.raises(ValueError):
            conv(Tensor(rng.standard_normal((6, 4))))

    def test_isolated_node_uses_own_features_only(self, rng):
        # A fully isolated stock's output depends only on itself (plus the
        # self-loop of the renormalization trick).
        rel = RelationMatrix(4, ["t"], [(0, 1, 0)])
        conv = RelationalGraphConvolution(make_strategy("uniform", rel), 3, 2,
                                          rng=rng)
        x = rng.standard_normal((2, 4, 3))
        base = conv(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[:, 0, :] += 10.0      # perturb stock 0 (unrelated to stock 3)
        out = conv(Tensor(x2)).data
        assert np.allclose(out[:, 3, :], base[:, 3, :])

        # Stock 1 (stock 0's neighbour) must see the perturbation.  Check
        # the pre-activation: the final relu can zero stock 1 under both
        # inputs for some initialisations.
        def pre_activation(values):
            x_t = Tensor(values)
            return (conv.conv(x_t, conv.strategy()) + conv.skip(x_t)).data

        assert not np.allclose(pre_activation(x2)[:, 1, :],
                               pre_activation(x)[:, 1, :])


class TestTemporalConvolution:
    def test_shape_stride_compression(self, rng):
        conv = TemporalConvolution(4, 6, stride=2, dropout=0.0)
        out = conv(features(rng, t=10, d=4))
        assert out.shape == (5, 6, 6)

    def test_causality_across_time_axis(self):
        conv = TemporalConvolution(1, 1, kernel_size=3, dropout=0.0)
        base = conv(Tensor(np.zeros((10, 2, 1)))).data
        bumped = np.zeros((10, 2, 1))
        bumped[7, 0, 0] = 1.0
        out = conv(Tensor(bumped)).data
        assert np.allclose(out[:7], base[:7])   # past unaffected by future

    def test_rank_validated(self, rng):
        with pytest.raises(ValueError):
            TemporalConvolution(4, 4)(Tensor(rng.standard_normal((5, 4))))


class TestRTGCN:
    @pytest.mark.parametrize("strategy", ["uniform", "weight", "time"])
    def test_scores_shape(self, strategy, rng):
        model = RTGCN(relations(), strategy=strategy, relational_filters=8,
                      rng=rng)
        scores = model(features(rng))
        assert scores.shape == (6,)

    def test_stacked_layers(self, rng):
        model = RTGCN(relations(), strategy="uniform", num_layers=2,
                      relational_filters=8, rng=rng)
        assert model(features(rng)).shape == (6,)

    def test_feature_dim_validated(self, rng):
        model = RTGCN(relations(), num_features=4, rng=rng)
        with pytest.raises(ValueError):
            model(Tensor(rng.standard_normal((8, 6, 3))))

    def test_rank_validated(self, rng):
        model = RTGCN(relations(), rng=rng)
        with pytest.raises(ValueError):
            model(Tensor(rng.standard_normal((8, 6))))

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            RTGCN(relations(), num_layers=0)

    def test_all_parameters_receive_gradients(self, rng):
        model = RTGCN(relations(), strategy="time", relational_filters=4,
                      dropout=0.0, rng=rng)
        scores = model(features(rng))
        (scores ** 2).sum().backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"
            assert np.isfinite(param.grad).all(), f"bad grad for {name}"

    def test_deterministic_in_eval_mode(self, rng):
        model = RTGCN(relations(), strategy="weight", dropout=0.5, rng=rng)
        model.eval()
        x = features(rng)
        with no_grad():
            a = model(x).data.copy()
            b = model(x).data.copy()
        assert np.allclose(a, b)

    def test_dropout_varies_in_train_mode(self, rng):
        model = RTGCN(relations(), strategy="uniform", dropout=0.5, rng=rng)
        x = features(rng)
        a = model(x).data.copy()
        b = model(x).data.copy()
        assert not np.allclose(a, b)

    def test_related_stock_features_influence_scores(self, rng):
        """The relational signal path: perturbing a neighbor changes a
        stock's score; perturbing an unrelated stock does not (1 layer)."""
        rel = RelationMatrix(5, ["t"], [(0, 1, 0)])
        model = RTGCN(rel, strategy="uniform", dropout=0.0, rng=rng)
        model.eval()
        x = rng.standard_normal((8, 5, 4))
        with no_grad():
            base = model(Tensor(x)).data.copy()
            bumped = x.copy()
            bumped[:, 1, :] += 1.0
            out = model(Tensor(bumped)).data
        assert abs(out[0] - base[0]) > 1e-9      # neighbor moved
        assert np.isclose(out[4], base[4])        # unrelated stock untouched


class TestAblations:
    def test_r_conv_has_no_temporal_module(self, rng):
        model = RTGCN.r_conv(relations(), relational_filters=4, rng=rng)
        assert model._modules["layer0"].temporal is None
        assert model._modules["layer0"].relational is not None
        assert model(features(rng)).shape == (6,)

    def test_r_conv_uses_uniform_strategy(self, rng):
        model = RTGCN.r_conv(relations(), rng=rng)
        assert model.strategy_name == "uniform"

    def test_t_conv_has_no_relational_module(self, rng):
        model = RTGCN.t_conv(relations(), relational_filters=4, rng=rng)
        assert model._modules["layer0"].relational is None
        assert model._modules["layer0"].temporal is not None
        assert model(features(rng)).shape == (6,)

    def test_t_conv_ignores_relations(self, rng):
        """T-Conv output for stock i depends only on stock i's features."""
        model = RTGCN.t_conv(relations(), dropout=0.0, rng=rng)
        model.eval()
        x = rng.standard_normal((8, 6, 4))
        with no_grad():
            base = model(Tensor(x)).data.copy()
            bumped = x.copy()
            bumped[:, 1, :] += 5.0     # stock 1 is related to stock 0
            out = model(Tensor(bumped)).data
        assert np.isclose(out[0], base[0])    # no relational propagation

    def test_layer_must_keep_one_module(self):
        with pytest.raises(ValueError):
            RTGCN(relations(), use_relational=False, use_temporal=False)
