"""Trainer state-dict contract: bitwise resume, config guards, NaN policy."""

import numpy as np
import pytest

from repro.ckpt import (CheckpointCallback, CheckpointError,
                        CheckpointManager, CrashAfterBatches,
                        SimulatedCrash, TrainingCheckpoint, load, save)
from repro.core import NonFiniteLossError, Trainer
from repro.core.losses import combined_loss
from repro.tensor import Tensor

from tests.ckpt.recipe import CRASH_BATCH, SAVE_EVERY, make_trainer


@pytest.mark.parametrize("graph_mode", ["dense", "sparse"])
class TestBitwiseResume:
    """The acceptance criterion: kill at batch k, resume, losses equal
    the uninterrupted run exactly — under both graph backends."""

    def test_crash_and_resume_reproduces_losses(self, csi_mini, tmp_path,
                                                graph_mode):
        baseline = make_trainer(csi_mini, graph_mode).fit()

        crashed = make_trainer(csi_mini, graph_mode)
        with pytest.raises(SimulatedCrash):
            crashed.fit(callbacks=[
                CheckpointCallback(tmp_path, every_n_batches=SAVE_EVERY),
                CrashAfterBatches(CRASH_BATCH)])

        resumed = make_trainer(csi_mini, graph_mode)
        losses = resumed.fit(
            callbacks=[CheckpointCallback(tmp_path,
                                          every_n_batches=SAVE_EVERY)],
            resume_from=tmp_path)
        assert losses == baseline    # bitwise, not approximately

    def test_uncrashed_checkpointed_run_matches_plain_run(self, csi_mini,
                                                          tmp_path,
                                                          graph_mode):
        plain = make_trainer(csi_mini, graph_mode).fit()
        checkpointed = make_trainer(csi_mini, graph_mode).fit(
            callbacks=[CheckpointCallback(tmp_path,
                                          every_n_batches=SAVE_EVERY)])
        assert checkpointed == plain    # checkpointing never perturbs


class TestResumeSemantics:
    def test_resume_from_explicit_file(self, csi_mini, tmp_path):
        baseline = make_trainer(csi_mini).fit()
        crashed = make_trainer(csi_mini)
        callback = CheckpointCallback(tmp_path, every_n_batches=SAVE_EVERY)
        with pytest.raises(SimulatedCrash):
            crashed.fit(callbacks=[callback,
                                   CrashAfterBatches(CRASH_BATCH)])
        assert callback.last_path is not None
        losses = make_trainer(csi_mini).fit(resume_from=callback.last_path)
        assert losses == baseline

    def test_resume_from_manager(self, csi_mini, tmp_path):
        manager = CheckpointManager(tmp_path)
        crashed = make_trainer(csi_mini)
        with pytest.raises(SimulatedCrash):
            crashed.fit(callbacks=[
                CheckpointCallback(manager, every_n_batches=SAVE_EVERY),
                CrashAfterBatches(CRASH_BATCH)])
        losses = make_trainer(csi_mini).fit(resume_from=manager)
        assert len(losses) == 3

    def test_extending_epochs_is_allowed(self, csi_mini, tmp_path):
        baseline = make_trainer(csi_mini, epochs=3).fit()
        short = make_trainer(csi_mini, epochs=2)
        short.fit(callbacks=[CheckpointCallback(tmp_path)])
        extended = make_trainer(csi_mini, epochs=3)
        losses = extended.fit(resume_from=tmp_path)
        assert losses == baseline

    def test_config_mismatch_refused(self, csi_mini, tmp_path):
        trainer = make_trainer(csi_mini)
        checkpoint = trainer.state_dict()
        other = make_trainer(csi_mini, window=8)
        with pytest.raises(CheckpointError, match="window"):
            other.load_state_dict(checkpoint)

    @pytest.mark.parametrize("dist_workers", [0, 2])
    def test_retired_dist_config_keys(self, csi_mini, tmp_path,
                                      dist_workers):
        # Archives from before the data-parallel loop was removed carry
        # its two config keys.  Serial ones (dist_workers 0) resume
        # bitwise; one recorded with multi-day steps must be refused.
        baseline = make_trainer(csi_mini).fit()
        callback = CheckpointCallback(tmp_path, every_n_batches=SAVE_EVERY)
        with pytest.raises(SimulatedCrash):
            make_trainer(csi_mini).fit(callbacks=[
                callback, CrashAfterBatches(CRASH_BATCH)])
        checkpoint = load(callback.last_path)
        checkpoint.config.update(dist_workers=dist_workers,
                                 dist_days_per_step=4)
        archive = save(checkpoint, tmp_path / "recorded.npz")
        resumed = make_trainer(csi_mini)
        if dist_workers:
            with pytest.raises(CheckpointError, match="data-parallel"):
                resumed.fit(resume_from=archive)
        else:
            assert resumed.fit(resume_from=archive) == baseline

    def test_model_class_mismatch_refused(self, csi_mini):
        trainer = make_trainer(csi_mini)
        checkpoint = trainer.state_dict()
        checkpoint.model_class = "Rank_LSTM"
        with pytest.raises(CheckpointError, match="Rank_LSTM"):
            trainer.load_state_dict(checkpoint)

    def test_v1_checkpoint_cannot_resume(self, csi_mini):
        trainer = make_trainer(csi_mini)
        legacy = TrainingCheckpoint(model_state=trainer.model.state_dict(),
                                    format_version=1)
        with pytest.raises(CheckpointError, match="parameters-only"):
            trainer.load_state_dict(legacy)

    def test_resume_from_empty_directory_refused(self, csi_mini, tmp_path):
        with pytest.raises(CheckpointError, match="resume"):
            make_trainer(csi_mini).fit(resume_from=tmp_path)

    def test_fresh_fit_still_restarts_from_epoch_zero(self, csi_mini):
        trainer = make_trainer(csi_mini, epochs=1)
        first = trainer.fit()
        second = trainer.fit()    # historical contract: no implicit resume
        assert len(first) == len(second) == 1

    def test_state_dict_captures_all_streams(self, csi_mini):
        trainer = make_trainer(csi_mini, epochs=1)
        trainer.fit()
        checkpoint = trainer.state_dict()
        assert checkpoint.model_class == "RTGCN"
        assert checkpoint.optimizer_state["type"] == "Adam"
        assert checkpoint.optimizer_state["step_count"] == 12
        assert checkpoint.optimizer_state["state"]   # Adam moments present
        assert "shuffle" in checkpoint.rng
        assert "global" in checkpoint.rng
        assert any(key.startswith("module:") for key in checkpoint.rng)
        assert checkpoint.cursor["epoch"] == 1
        assert checkpoint.config["window"] == 6


class PoisonLoss:
    """The paper's combined loss, multiplied into NaN on chosen calls."""

    def __init__(self, poison_at, once=True):
        self.calls = 0
        self.poison_at = poison_at
        self.once = once
        self.fired = False

    def __call__(self, scores, labels, params):
        self.calls += 1
        loss = combined_loss(scores, labels, 0.1, parameters=params,
                             weight_decay=1e-6)
        poisoned = (self.calls >= self.poison_at if not self.once
                    else self.calls == self.poison_at and not self.fired)
        if poisoned:
            self.fired = True
            return loss * float("nan")
        return loss


class TestNanPolicy:
    def nan_trainer(self, dataset, policy, loss_fn, **overrides):
        trainer = make_trainer(dataset, epochs=1, max_train_days=8,
                               nan_policy=policy, **overrides)
        trainer.loss_fn = loss_fn
        return trainer

    def test_default_policy_raises(self, csi_mini):
        trainer = self.nan_trainer(csi_mini, "raise", PoisonLoss(3))
        with pytest.raises(NonFiniteLossError, match="non-finite loss"):
            trainer.fit()

    def test_ignore_warns_and_finishes(self, csi_mini):
        trainer = self.nan_trainer(csi_mini, "ignore", PoisonLoss(3))
        with pytest.warns(RuntimeWarning, match="ignore"):
            losses = trainer.fit()
        assert len(losses) == 1

    def test_rollback_recovers_and_halves_lr(self, csi_mini, tmp_path):
        trainer = self.nan_trainer(csi_mini, "rollback", PoisonLoss(5))
        original_lr = trainer.optimizer.lr
        with pytest.warns(RuntimeWarning, match="rolled back"):
            losses = trainer.fit(callbacks=[
                CheckpointCallback(tmp_path, every_n_batches=2)])
        assert len(losses) == 1
        assert np.isfinite(losses[0])
        assert trainer.optimizer.lr == original_lr / 2

    def test_rollback_without_checkpoint_raises(self, csi_mini):
        trainer = self.nan_trainer(csi_mini, "rollback", PoisonLoss(3))
        with pytest.raises(NonFiniteLossError, match="CheckpointCallback"):
            trainer.fit()

    def test_rollback_gives_up_when_diverging(self, csi_mini, tmp_path):
        poison = PoisonLoss(2, once=False)    # every batch NaN from call 2
        trainer = self.nan_trainer(csi_mini, "rollback", poison,
                                   max_rollbacks=2)
        with pytest.warns(RuntimeWarning, match="rolled back"):
            with pytest.raises(NonFiniteLossError, match="gave up"):
                trainer.fit(callbacks=[
                    CheckpointCallback(tmp_path, every_n_batches=1)])

    def test_invalid_policy_rejected(self, csi_mini):
        with pytest.raises(ValueError, match="nan_policy"):
            make_trainer(csi_mini, nan_policy="shrug")
