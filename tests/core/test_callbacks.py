"""Trainer event API: callback order, progress callbacks, evaluate()."""

import numpy as np

from repro.core import (CallbackList, ProgressCallback, RTGCN, TrainConfig,
                        Trainer, TrainerCallback)


class RecordingCallback(TrainerCallback):
    def __init__(self, log=None):
        self.log = log if log is not None else []

    def on_epoch_start(self, trainer, epoch):
        self.log.append(("epoch_start", epoch))

    def on_batch_end(self, trainer, epoch, day, loss):
        self.log.append(("batch_end", epoch))

    def on_epoch_end(self, trainer, epoch, mean_loss):
        self.log.append(("epoch_end", epoch))

    def on_fit_end(self, trainer, losses):
        self.log.append(("fit_end", len(losses)))


def make_trainer(dataset, **overrides):
    defaults = dict(window=8, epochs=2, max_train_days=3, seed=0)
    defaults.update(overrides)
    model = RTGCN(dataset.relations, relational_filters=4,
                  rng=np.random.default_rng(0))
    return Trainer(model, dataset, TrainConfig(**defaults))


class TestCallbackOrder:
    def test_events_fire_in_order(self, nasdaq_mini):
        cb = RecordingCallback()
        trainer = make_trainer(nasdaq_mini)
        trainer.fit(callbacks=[cb])
        expected = []
        for epoch in range(2):
            expected.append(("epoch_start", epoch))
            expected.extend([("batch_end", epoch)] * 3)
            expected.append(("epoch_end", epoch))
        expected.append(("fit_end", 2))
        assert cb.log == expected

    def test_batch_end_sees_day_and_loss(self, nasdaq_mini):
        seen = []

        class Spy(TrainerCallback):
            def on_batch_end(self, trainer, epoch, day, loss):
                seen.append((epoch, day, loss))

        trainer = make_trainer(nasdaq_mini, epochs=1)
        trainer.fit(callbacks=[Spy()])
        assert len(seen) == 3
        train_days, _ = nasdaq_mini.split(8)
        for epoch, day, loss in seen:
            assert epoch == 0
            assert day in train_days
            assert np.isfinite(loss)

    def test_multiple_callbacks_fan_out_in_order(self, nasdaq_mini):
        log = []
        first = RecordingCallback(log)
        second = RecordingCallback(log)
        trainer = make_trainer(nasdaq_mini, epochs=1)
        trainer.fit(callbacks=[first, second])
        # each event appears twice, back to back (first then second)
        assert log[0] == log[1] == ("epoch_start", 0)
        assert log[-1] == log[-2] == ("fit_end", 1)

    def test_callback_list_is_a_callback(self, nasdaq_mini):
        cb = RecordingCallback()
        trainer = make_trainer(nasdaq_mini, epochs=1)
        trainer.fit(callbacks=[CallbackList([cb])])
        assert ("fit_end", 1) in cb.log

    def test_fit_end_fires_on_early_stopping(self, csi_mini):
        cb = RecordingCallback()
        trainer = make_trainer(csi_mini, epochs=6, max_train_days=12,
                               early_stopping_patience=1,
                               validation_days=3)
        losses = trainer.fit(callbacks=[cb])
        assert cb.log[-1] == ("fit_end", len(losses))
        assert cb.log.count(("fit_end", len(losses))) == 1


class TestProgressCallback:
    def test_progress_callback_fires_each_epoch(self, nasdaq_mini):
        seen = []
        trainer = make_trainer(nasdaq_mini)
        trainer.fit(callbacks=[ProgressCallback(
            lambda e, loss: seen.append(e))])
        assert seen == [0, 1]

    def test_fit_without_callbacks_does_not_warn(self, nasdaq_mini):
        import warnings

        trainer = make_trainer(nasdaq_mini, epochs=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            losses = trainer.fit()
        assert len(losses) == 1

    def test_run_forwards_callbacks(self, nasdaq_mini):
        seen = []
        trainer = make_trainer(nasdaq_mini, epochs=1)
        result = trainer.run(callbacks=[ProgressCallback(
            lambda e, loss: seen.append(e))])
        assert len(result.epoch_losses) == 1
        assert seen == [0]


class TestEvaluate:
    def test_evaluate_defaults_to_test_split(self, nasdaq_mini):
        trainer = make_trainer(nasdaq_mini, epochs=1)
        trainer.fit()
        out = trainer.evaluate()
        _, test_days = nasdaq_mini.split(8)
        assert out["num_days"] == len(test_days)
        assert np.isfinite(out["loss"])

    def test_evaluate_explicit_days(self, nasdaq_mini):
        trainer = make_trainer(nasdaq_mini, epochs=1)
        _, test_days = nasdaq_mini.split(8)
        out = trainer.evaluate(test_days[:4])
        assert out["num_days"] == 4

    def test_evaluate_restores_train_mode(self, nasdaq_mini):
        trainer = make_trainer(nasdaq_mini, epochs=1)
        trainer.evaluate(nasdaq_mini.split(8)[1][:2])
        assert trainer.model.training
