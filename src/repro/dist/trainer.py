"""The data-parallel fit loop: ``fit_distributed`` and ``DistTrainer``.

One optimizer step consumes ``TrainConfig.dist_days_per_step`` days of
the epoch's (shuffled) schedule instead of one: the step's days are
computed as independent shards against the same shared parameters, the
per-shard gradients are tree-reduced in the frozen order and averaged
over the step's days, and one Adam step applies the result.  With
``dist_days_per_step=1`` this degenerates to the serial trainer's
one-step-per-day schedule.

Determinism contract (the same bar every prior perf PR cleared): the
numbers are a pure function of the *plan*, never of the worker count —
``dist_workers`` ∈ {1, 2, 4, ...} all produce bitwise-identical epoch
losses and final parameters under float64 (tolerance-bounded under the
fp32/mixed dtype policies, where only storage precision differs, never
association order).  The serial reference is ``dist_workers=1``: the
identical plan/reduce/step code path executed inline, no forks.

Integration rides the existing :class:`~repro.core.trainer.Trainer`
surface: the same :class:`~repro.core.callbacks.TrainerCallback` events
fire in the same order (``on_batch_end`` once per day, in schedule
order), ``Trainer.state_dict()`` stays valid at step boundaries, early
stopping evaluates in the parent, and per-worker utilization flows into
the experiment store as a ``dist`` telemetry report when a
:class:`~repro.store.StoreCallback` is wired.
"""

from __future__ import annotations

import warnings
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.callbacks import CallbackList, TrainerCallback
from ..core.trainer import NonFiniteLossError, Trainer, _FitState
from ..obs.tracer import trace
from ..optim import clip_grad_norm_
from ..tensor import arena, dtype_policy, fused_kernels
from .params import GradSlots, ParamStore
from .plan import ShardPlan
from .reduce import GradReducer
from .worker import ShardExecutor, WorkerContext

__all__ = ["DistTrainer", "fit_distributed"]


def _resolve_dist_workers(requested: int) -> int:
    """``dist_workers`` semantics: 0 disables (callers guard), N >= 1
    runs the dist loop with N processes (1 = inline serial reference)."""
    import os

    if requested < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(requested))


def fit_distributed(trainer: Trainer,
                    callbacks: Optional[Sequence[TrainerCallback]] = None,
                    resume_from: Any = None,
                    workers: Optional[int] = None) -> List[float]:
    """Run ``trainer``'s training epochs data-parallel; per-epoch losses.

    Drop-in for :meth:`Trainer.fit` (which delegates here whenever
    ``TrainConfig.dist_workers`` is non-zero), with two documented
    restrictions: ``resume_from`` is not yet supported under the
    distributed loop (train serially to resume; a checkpoint *taken*
    during a distributed fit is still valid and loadable), and
    ``nan_policy="rollback"`` is not available (use ``"raise"`` or
    ``"ignore"``).
    """
    cfg = trainer.config
    if resume_from is not None:
        raise NotImplementedError(
            "resume_from is not supported under the distributed fit loop "
            "yet; resume with dist_workers=0 (serial) — checkpoints taken "
            "during a distributed fit load fine")
    if cfg.nan_policy == "rollback":
        raise ValueError(
            "nan_policy='rollback' is not supported under the distributed "
            "fit loop; use 'raise' or 'ignore' (or train with "
            "dist_workers=0)")
    n_workers = _resolve_dist_workers(
        cfg.dist_workers if workers is None else workers)

    events = CallbackList(callbacks or ())
    train_days, validation_days = trainer._training_days()
    state = _FitState(rng=np.random.default_rng(cfg.seed))
    trainer._fit_state = state
    model = trainer.model
    model.train()
    reducer = GradReducer()

    with dtype_policy(cfg.dtype_policy), \
            fused_kernels(cfg.fused_kernels), \
            arena(bool(cfg.buffer_arena)):
        store = ParamStore(model, trainer.optimizer)
        slots = GradSlots(
            {name: param.data
             for name, param in model.named_parameters()},
            n_slots=n_workers, base_name=store.base_name + "-slots")
        try:
            store.adopt_parent()
            store.commit(trainer.optimizer._step_count)
            # Workers fork *after* parent adoption: they inherit the
            # mappings and the exact objects, so nothing is pickled.
            executor = ShardExecutor(
                WorkerContext(model=model, dataset=trainer.dataset,
                              config=cfg, loss_fn=trainer.loss_fn,
                              store=store, slots=slots),
                workers=n_workers)
            trainer.dist_executor = executor
            try:
                _dist_epochs(trainer, state, events, executor, store,
                             reducer, train_days, validation_days)
            finally:
                executor.shutdown()
                trainer.dist_executor = None
        finally:
            # Re-own the parameters before the segments disappear; the
            # final weights must outlive the store.
            for _, param in model.named_parameters():
                param.data = np.array(param.data)
                param.grad = None
            store.close()
            slots.close()
        if state.best_state is not None:
            model.load_state_dict(state.best_state)
        events.on_fit_end(trainer, state.losses)
        _record_dist_telemetry(executor, callbacks or ())
    return state.losses


def _dist_epochs(trainer: Trainer, state: _FitState,
                 events: CallbackList, executor: ShardExecutor,
                 store: ParamStore, reducer: GradReducer,
                 train_days: List[int],
                 validation_days: List[int]) -> None:
    cfg = trainer.config
    model = trainer.model
    named = list(model.named_parameters())
    params = [param for _, param in named]
    while state.epoch < cfg.epochs:
        epoch = state.epoch
        order = np.array(train_days)
        if cfg.shuffle:
            state.rng.shuffle(order)
        state.day_order = [int(day) for day in order]
        state.batch_index = 0
        state.epoch_loss = 0.0
        events.on_epoch_start(trainer, epoch)
        plan = ShardPlan.for_days(state.day_order, cfg.dist_days_per_step)
        with trace("epoch"):
            for group in plan.steps:
                grads, shard_losses = executor.run_step(epoch, group.index,
                                                        group)
                # (day, loss) pairs in canonical schedule order — the
                # accumulation order is part of the frozen plan.
                day_losses: List[Tuple[int, float]] = []
                for shard in group.shards:
                    day_losses.extend(shard_losses[shard.index])
                _check_finite(cfg, epoch, day_losses)
                reduced = reducer.reduce(grads)
                n_days = len(group.days)
                with trace("grad_reduce"):
                    for name, param in named:
                        grad = reduced[name]
                        if n_days > 1:
                            grad /= n_days
                        param.grad = grad
                with trace("optimizer_step"):
                    if cfg.grad_clip:
                        clip_grad_norm_(params, cfg.grad_clip)
                    trainer.optimizer.step()
                    store.commit(trainer.optimizer._step_count)
                for day, day_loss in day_losses:
                    state.epoch_loss += day_loss
                    state.batch_index += 1
                    events.on_batch_end(trainer, epoch, int(day), day_loss)
        mean_loss = state.epoch_loss / max(len(state.day_order), 1)
        state.losses.append(mean_loss)
        state.day_order = None
        state.batch_index = 0
        state.epoch_loss = 0.0
        state.epoch = epoch + 1
        stop = False
        if cfg.early_stopping_patience is not None:
            val_loss = trainer._validation_loss(validation_days)
            if val_loss < state.best_val:
                state.best_val = val_loss
                state.best_state = model.state_dict()
                state.bad_epochs = 0
            else:
                state.bad_epochs += 1
                stop = state.bad_epochs >= cfg.early_stopping_patience
        events.on_epoch_end(trainer, epoch, mean_loss)
        if stop:
            break


def _check_finite(cfg, epoch: int,
                  day_losses: List[Tuple[int, float]]) -> None:
    bad = [(day, loss) for day, loss in day_losses
           if not np.isfinite(loss)]
    if not bad:
        return
    day, loss = bad[0]
    detail = f"non-finite loss {loss!r} at epoch {epoch}, day {day}"
    if cfg.nan_policy == "ignore":
        warnings.warn(detail + " (nan_policy='ignore')", RuntimeWarning,
                      stacklevel=4)
        return
    raise NonFiniteLossError(
        detail + "; inspect gradients/learning rate (nan_policy="
        "'rollback' is unavailable under dist_workers)")


def _record_dist_telemetry(executor: ShardExecutor,
                           callbacks: Sequence[TrainerCallback]) -> None:
    """Flow per-worker utilization into the store when one is wired."""
    from ..store.callback import StoreCallback

    for cb in callbacks:
        if isinstance(cb, StoreCallback) and cb.run_id is not None:
            cb.store.record_report(
                executor.telemetry.report(kind="dist"),
                kind="dist")
            return


class DistTrainer(Trainer):
    """A :class:`~repro.core.trainer.Trainer` that always fits through
    the data-parallel loop.

    ``TrainConfig.dist_workers`` picks the process count (0 and 1 both
    run inline — the serial reference; negative means one per CPU);
    everything else — construction, ``evaluate``, ``predict``,
    ``run``, ``state_dict`` — is inherited unchanged.
    """

    def fit(self, callbacks: Optional[Sequence[TrainerCallback]] = None,
            resume_from: Any = None) -> List[float]:
        return fit_distributed(
            self, callbacks=callbacks, resume_from=resume_from,
            workers=_resolve_dist_workers(self.config.dist_workers))
