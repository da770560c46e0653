"""Failure injection: the library must fail loudly on bad inputs.

Production code paths are exercised with malformed shapes, NaNs, and
contract violations; every case must raise a clear error (or, where NaN
propagation is the documented behavior, be detectable downstream).
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import RTGCN, TrainConfig, Trainer
from repro.data import FeaturePanel, SimulationConfig, StockDataset
from repro.graph import normalize_adjacency
from repro.tensor import Tensor, conv1d


class TestTensorContracts:
    def test_mismatched_matmul_raises(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            a @ b

    def test_bad_reshape_raises(self, rng):
        with pytest.raises(ValueError):
            Tensor(rng.standard_normal(6)).reshape(4, 2)

    def test_nan_propagates_visibly(self):
        x = Tensor(np.array([1.0, np.nan]), requires_grad=True)
        out = (x * 2).sum()
        assert np.isnan(out.item())

    def test_conv_on_empty_batch(self):
        x = Tensor(np.zeros((0, 2, 8)))
        w = Tensor(np.zeros((3, 2, 2)))
        out = conv1d(x, w)
        assert out.shape == (0, 3, 7)


class TestDataContracts:
    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            FeaturePanel.from_prices(np.full((2, 30), -1.0))

    def test_nan_prices_rejected(self):
        prices = np.full((2, 30), 10.0)
        prices[0, 5] = np.nan
        with pytest.raises(ValueError):
            FeaturePanel.from_prices(prices)

    def test_simulation_rejects_degenerate_horizon(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_days=1)
            from repro.data import generate_universe, simulate_market
            simulate_market(generate_universe("X", 5, 2, 0.3), [],
                            config=SimulationConfig(num_days=1))

    def test_window_larger_than_history(self, nasdaq_mini):
        with pytest.raises(ValueError):
            nasdaq_mini.split(window=10_000)


class TestGraphContracts:
    def test_non_square_adjacency(self):
        with pytest.raises(ValueError):
            normalize_adjacency(np.ones((2, 3)))


class TestModelContracts:
    def test_model_relation_count_mismatch(self, nasdaq_mini, csi_mini, rng):
        """A model built for one universe must reject another's features."""
        model = RTGCN(csi_mini.relations, relational_filters=4, rng=rng)
        features = nasdaq_mini.features(60, window=6)    # 48 stocks
        with pytest.raises(ValueError):
            model(Tensor(features))

    def test_trainer_with_incompatible_model(self, nasdaq_mini, csi_mini,
                                             rng):
        model = RTGCN(csi_mini.relations, relational_filters=4, rng=rng)
        trainer = Trainer(model, nasdaq_mini,
                          TrainConfig(window=6, epochs=1, max_train_days=2))
        with pytest.raises(ValueError):
            trainer.fit()

    def test_module_rejects_bad_state_shape(self, rng):
        layer = nn.Linear(3, 2)
        with pytest.raises(ValueError):
            layer.load_state_dict({"weight": np.zeros((9, 9)),
                                   "bias": np.zeros(2)})

    def test_training_survives_extreme_inputs(self, nasdaq_mini, rng):
        """Huge-but-finite features must not produce NaN losses (clipping
        and normalization keep the pipeline stable)."""
        model = RTGCN(nasdaq_mini.relations, relational_filters=4,
                      dropout=0.0, rng=rng)
        features = nasdaq_mini.features(60, window=6) * 50.0
        scores = model(Tensor(features))
        assert np.isfinite(scores.data).all()


def test_rtgcn_mismatched_adjacency_in_graphconv(rng):
    from repro.nn import GraphConv
    conv = GraphConv(3, 4)
    with pytest.raises(ValueError):
        conv(Tensor(rng.standard_normal((5, 3))),
             Tensor(np.eye(4)))
