"""Early stopping in the trainer."""

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig, Trainer


def make_model(dataset, seed=0):
    return RTGCN(dataset.relations, strategy="uniform",
                 relational_filters=8, rng=np.random.default_rng(seed))


class TestEarlyStopping:
    def test_stops_before_max_epochs(self, csi_mini):
        cfg = TrainConfig(window=8, epochs=40, max_train_days=50,
                          early_stopping_patience=2, validation_days=12,
                          seed=0)
        losses = Trainer(make_model(csi_mini), csi_mini, cfg).fit()
        assert len(losses) < 40

    def test_disabled_by_default(self, csi_mini):
        cfg = TrainConfig(window=8, epochs=3, max_train_days=15, seed=0)
        losses = Trainer(make_model(csi_mini), csi_mini, cfg).fit()
        assert len(losses) == 3

    def test_requires_positive_validation_days(self):
        with pytest.raises(ValueError, match="validation_days must be"):
            TrainConfig(window=8, epochs=2, early_stopping_patience=1,
                        validation_days=0)

    def test_validation_cannot_exhaust_training(self, csi_mini):
        cfg = TrainConfig(window=8, epochs=2, max_train_days=10,
                          early_stopping_patience=1, validation_days=10)
        with pytest.raises(ValueError):
            Trainer(make_model(csi_mini), csi_mini, cfg).fit()

    def test_best_state_restored(self, csi_mini):
        """After stopping, the model carries the best-validation weights:
        its validation loss equals the minimum seen, not the last."""
        cfg = TrainConfig(window=8, epochs=25, max_train_days=60,
                          early_stopping_patience=3, validation_days=12,
                          seed=1)
        model = make_model(csi_mini, seed=1)
        trainer = Trainer(model, csi_mini, cfg)
        seen = []
        original_eval = trainer._validation_loss

        def spy(days):
            value = original_eval(days)
            seen.append(value)
            return value

        trainer._validation_loss = spy
        trainer.fit()
        final = original_eval(csi_mini.split(8)[0][-12:])
        assert np.isclose(final, min(seen), atol=1e-9)
