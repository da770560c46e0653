"""Trainer event API: the :class:`TrainerCallback` protocol.

The Trainer used to accept a bare ``Callable[[int, float], None]`` progress
hook, which could not observe batches or the end of a fit.  Callbacks
replace it: subclass :class:`TrainerCallback`, override any subset of the
four events, and pass instances to :meth:`Trainer.fit`.

Event order for a fit of ``E`` epochs over ``B`` training days::

    on_epoch_start(trainer, 0)
      on_batch_end(trainer, 0, day, loss)   x B
    on_epoch_end(trainer, 0, mean_loss)
    ... (repeated per epoch; early stopping may cut the sequence short)
    on_fit_end(trainer, losses)             exactly once

Callbacks observe; they do not steer — early stopping stays a
``TrainConfig`` concern so a misbehaving observer cannot change training
results.  The observability layer builds on this protocol: see
:class:`repro.obs.TelemetryCallback`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence


class TrainerCallback:
    """Base class / protocol for trainer event observers.

    Every hook has a no-op default, so subclasses override only the events
    they care about.  Any object with the same four methods also works —
    the Trainer calls them duck-typed.
    """

    def on_epoch_start(self, trainer, epoch: int) -> None:
        """Called before the first batch of ``epoch``."""

    def on_batch_end(self, trainer, epoch: int, day: int,
                     loss: float) -> None:
        """Called after the optimiser step for one training day."""

    def on_epoch_end(self, trainer, epoch: int, mean_loss: float) -> None:
        """Called after every batch of ``epoch`` (the early-stopping
        validation pass has already updated the trainer's best state, so
        a checkpoint taken here is current)."""

    def on_fit_end(self, trainer, losses: List[float]) -> None:
        """Called exactly once when the fit finishes (however it ends)."""


class CallbackList(TrainerCallback):
    """Fans each event out to a sequence of callbacks, in order."""

    def __init__(self, callbacks: Sequence[TrainerCallback] = ()):
        self.callbacks = list(callbacks)

    def on_epoch_start(self, trainer, epoch: int) -> None:
        for cb in self.callbacks:
            cb.on_epoch_start(trainer, epoch)

    def on_batch_end(self, trainer, epoch: int, day: int,
                     loss: float) -> None:
        for cb in self.callbacks:
            cb.on_batch_end(trainer, epoch, day, loss)

    def on_epoch_end(self, trainer, epoch: int, mean_loss: float) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(trainer, epoch, mean_loss)

    def on_fit_end(self, trainer, losses: List[float]) -> None:
        for cb in self.callbacks:
            cb.on_fit_end(trainer, losses)


class ProgressCallback(TrainerCallback):
    """Calls ``fn(epoch, mean_loss)`` at the end of every epoch."""

    def __init__(self, fn: Callable[[int, float], None]):
        self.fn = fn

    def on_epoch_end(self, trainer, epoch: int, mean_loss: float) -> None:
        self.fn(epoch, mean_loss)
