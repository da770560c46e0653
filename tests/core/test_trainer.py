"""Trainer: loss descent, prediction shapes, determinism, custom losses."""

import numpy as np

from repro.core import ProgressCallback, RTGCN, TrainConfig, Trainer
from repro.core.losses import regression_loss
from repro.tensor import Tensor


def quick_config(**overrides):
    defaults = dict(window=8, epochs=2, max_train_days=25, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTraining:
    def test_loss_decreases(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, strategy="uniform",
                      relational_filters=8, dropout=0.0, rng=rng)
        losses = Trainer(model, nasdaq_mini,
                         quick_config(epochs=4)).fit()
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_progress_callback_invoked(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        seen = []
        Trainer(model, nasdaq_mini, quick_config(epochs=2)).fit(
            callbacks=[ProgressCallback(
                lambda epoch, loss: seen.append((epoch, loss)))])
        assert [e for e, _ in seen] == [0, 1]

    def test_max_train_days_limits_samples(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        trainer = Trainer(model, nasdaq_mini,
                          quick_config(max_train_days=5, epochs=1))
        losses = trainer.fit()
        assert len(losses) == 1   # smoke: runs with 5 days only

    def test_custom_loss_fn_used(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        calls = []

        def loss_fn(scores, labels, params):
            calls.append(1)
            return regression_loss(scores, labels)

        Trainer(model, nasdaq_mini, quick_config(epochs=1,
                                                 max_train_days=3),
                loss_fn=loss_fn).fit()
        assert len(calls) == 3


class TestPrediction:
    def test_run_produces_full_test_matrix(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        result = Trainer(model, nasdaq_mini, quick_config(epochs=1)).run()
        _, test_days = nasdaq_mini.split(8)
        assert result.predictions.shape == (len(test_days), 48)
        assert result.actuals.shape == (len(test_days), 48)
        assert result.test_days == list(test_days)
        assert result.train_seconds > 0
        assert result.test_seconds > 0

    def test_predictions_finite(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, strategy="time",
                      relational_filters=4, rng=rng)
        result = Trainer(model, nasdaq_mini, quick_config(epochs=1)).run()
        assert np.isfinite(result.predictions).all()

    def test_predict_is_deterministic(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, dropout=0.5,
                      relational_filters=4, rng=rng)
        trainer = Trainer(model, nasdaq_mini, quick_config())
        _, test_days = nasdaq_mini.split(8)
        a = trainer.predict(test_days[:5])
        b = trainer.predict(test_days[:5])
        assert np.allclose(a, b)    # eval mode disables dropout

    def test_model_back_in_train_mode_after_predict(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        trainer = Trainer(model, nasdaq_mini, quick_config())
        trainer.predict(nasdaq_mini.split(8)[1][:2])
        assert model.training


class TestDeterminism:
    def test_same_seed_same_losses(self, nasdaq_mini):
        def run(seed):
            model = RTGCN(nasdaq_mini.relations, relational_filters=4,
                          dropout=0.0,
                          rng=np.random.default_rng(99))
            cfg = quick_config(epochs=1, seed=seed, max_train_days=10)
            return Trainer(model, nasdaq_mini, cfg).fit()
        assert np.allclose(run(5), run(5))

    def test_actuals_match_dataset_labels(self, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4, rng=rng)
        result = Trainer(model, nasdaq_mini,
                         quick_config(epochs=1, max_train_days=3)).run()
        day = result.test_days[0]
        assert np.allclose(result.actuals[0], nasdaq_mini.label(day))
