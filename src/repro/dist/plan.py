"""Deterministic partitioning of a training step's work.

A data-parallel step must produce the same numbers no matter how many
workers execute it, so the *plan* — which days form one optimizer step,
how the step splits into shards, and in which order shard gradients are
reduced — is a pure function of the configuration and the epoch's
(already shuffled) day order.  Workers are merely a scheduling pool over
the plan's shards; adding or removing workers reassigns shards to
processes but never changes the plan itself.

The partition axis is the day: :meth:`ShardPlan.for_days` splits the
day-group of one optimizer step into contiguous single- or multi-day
shards, the unit :class:`~repro.dist.worker.ShardExecutor` dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["Shard", "StepGroup", "ShardPlan"]


@dataclass(frozen=True)
class Shard:
    """One worker-executable unit: a contiguous run of training days.

    ``index`` is the shard's position inside its step group — the frozen
    key of the gradient reduction order.
    """

    index: int
    days: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class StepGroup:
    """The shards of one optimizer step, in reduction order."""

    index: int
    shards: Tuple[Shard, ...]

    @property
    def days(self) -> Tuple[int, ...]:
        """Every day of the step, in canonical (schedule) order."""
        return tuple(day for shard in self.shards for day in shard.days)

    def __len__(self) -> int:
        return len(self.shards)


@dataclass(frozen=True)
class ShardPlan:
    """An epoch's full schedule: optimizer steps of day shards.

    Build with :meth:`for_days`.  The plan depends only on the day order
    and the grouping knobs — never on the worker count — which is what
    keeps 1-, 2- and 4-worker runs bitwise-identical.
    """

    steps: Tuple[StepGroup, ...]
    days_per_step: int
    days_per_shard: int

    @classmethod
    def for_days(cls, day_order: Sequence[int], days_per_step: int,
                 days_per_shard: int = 1) -> "ShardPlan":
        """Slice a (shuffled) day order into steps of contiguous shards.

        Every ``days_per_step`` consecutive days form one optimizer
        step; within a step, every ``days_per_shard`` consecutive days
        form one shard (the last step and shard may be ragged).  With
        ``days_per_step=1`` the plan degenerates to one step per day —
        the serial trainer's schedule.
        """
        if days_per_step < 1:
            raise ValueError(f"days_per_step must be >= 1, got "
                             f"{days_per_step}")
        if days_per_shard < 1:
            raise ValueError(f"days_per_shard must be >= 1, got "
                             f"{days_per_shard}")
        days = [int(day) for day in day_order]
        steps: List[StepGroup] = []
        for step_index, start in enumerate(range(0, len(days),
                                                 days_per_step)):
            group_days = days[start:start + days_per_step]
            shards = tuple(
                Shard(index=shard_index,
                      days=tuple(group_days[off:off + days_per_shard]))
                for shard_index, off in enumerate(
                    range(0, len(group_days), days_per_shard)))
            steps.append(StepGroup(index=step_index, shards=shards))
        return cls(steps=tuple(steps), days_per_step=int(days_per_step),
                   days_per_shard=int(days_per_shard))

    @property
    def num_days(self) -> int:
        return sum(len(group.days) for group in self.steps)

    @property
    def max_shards(self) -> int:
        """The widest step — how many grad slots an executor needs."""
        return max((len(group) for group in self.steps), default=0)

    def __len__(self) -> int:
        return len(self.steps)
