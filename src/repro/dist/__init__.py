"""repro.dist — deterministic intra-run data parallelism.

The run-level pool (:mod:`repro.parallel`) parallelizes *across*
independent runs of a sweep; this package parallelizes *inside* one
training run without changing its numbers.  The design splits into
four pieces, each reusable on its own:

- :mod:`~repro.dist.plan` — :class:`ShardPlan`, the pure function from
  (day order, grouping knobs) to the step/shard schedule;
- :mod:`~repro.dist.reduce` — :class:`GradReducer`, the frozen fan-in
  tree that pins the floating-point association order of gradient sums;
- :mod:`~repro.dist.params` — :class:`ParamStore` and
  :class:`GradSlots`, live parameters/Adam moments and per-worker
  gradient buffers in ``multiprocessing.shared_memory`` so weight
  broadcast and gradient return never pickle anything;
- :mod:`~repro.dist.worker` — :class:`ShardExecutor`, the forked
  worker pool (lifecycle lifted from :mod:`repro.parallel.pool`:
  PDEATHSIG, crash detection, bounded shard replay) with an inline
  single-process mode that is the serial numerical reference.

:func:`fit_distributed` (or :class:`DistTrainer`, or simply
``TrainConfig(dist_workers=N)``) ties them into the existing trainer.
Worker count never affects the numerics: under float64, 1-, 2- and
4-worker runs produce bitwise-identical epoch losses and final
parameters; under fp32/mixed the association order is still frozen and
runs agree to storage-precision tolerance.  See docs/distributed.md.
"""

from .params import GradSlots, ParamStore
from .plan import Shard, ShardPlan, StepGroup
from .reduce import GradReducer
from .trainer import DistTrainer, fit_distributed
from .worker import (ShardExecutor, WorkerContext, compute_shard,
                     reseed_shard, shard_rngs)

__all__ = [
    "Shard",
    "ShardPlan",
    "StepGroup",
    "GradReducer",
    "ParamStore",
    "GradSlots",
    "ShardExecutor",
    "WorkerContext",
    "compute_shard",
    "reseed_shard",
    "shard_rngs",
    "DistTrainer",
    "fit_distributed",
]
