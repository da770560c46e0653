"""Training/testing speed measurement (Figure 5).

Figure 5 compares wall-clock training and testing time of the
ranking-based models.  The measurement here is per-epoch training time and
full-test-sweep inference time under identical data, so the paper's claim —
pure convolution (RT-GCN, RT-GAT) is several times faster than the
LSTM-based rankers (Rank_LSTM, RSR) — is attributable to the operator mix
alone.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from ..core.trainer import TrainConfig, Trainer
from ..data import StockDataset
from ..nn.module import Module
from ..obs.tracer import Tracer, use_tracer

#: timings at or below this are indistinguishable from timer noise; ratios
#: built from them are meaningless and reported as NaN
MIN_MEASURABLE_SECONDS = 1e-6


@dataclass(frozen=True)
class SpeedMeasurement:
    """Wall-clock cost of one model on one dataset.

    ``phases`` holds the tracer breakdown of the measured run:
    ``{phase: {"count": n, "seconds": s}}`` for ``data_prep`` / ``forward``
    / ``backward`` / ``optimizer_step`` / ``inference`` (see
    :mod:`repro.obs`).
    """

    name: str
    train_seconds_per_epoch: float
    test_seconds: float
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict,
                                                compare=False)

    def speedup_over(self, other: "SpeedMeasurement") -> Dict[str, float]:
        """How many times faster this model is than ``other``.

        Sub-resolution timings on *either* side of a ratio make the
        "speedup" pure noise — a zero numerator is as bogus as a zero
        denominator — so such entries are NaN, with a warning.
        """
        out: Dict[str, float] = {}
        pairs = {
            "train": (other.train_seconds_per_epoch,
                      self.train_seconds_per_epoch),
            "test": (other.test_seconds, self.test_seconds),
        }
        for key, (theirs, ours) in pairs.items():
            if (theirs <= MIN_MEASURABLE_SECONDS
                    or ours <= MIN_MEASURABLE_SECONDS):
                warnings.warn(
                    f"{key} speedup of {self.name!r} over {other.name!r} is "
                    f"undefined: measured times ({ours:.3g}s, {theirs:.3g}s)"
                    f" are below the {MIN_MEASURABLE_SECONDS:.0e}s timer "
                    "resolution", RuntimeWarning, stacklevel=2)
                out[key] = float("nan")
            else:
                out[key] = theirs / ours
        return out


def measure_speed(name: str,
                  factory: Callable[[np.random.Generator], Module],
                  dataset: StockDataset,
                  config: Optional[TrainConfig] = None,
                  epochs: int = 1, seed: int = 0) -> SpeedMeasurement:
    """Time ``epochs`` training epochs and one full test sweep."""
    from dataclasses import replace

    cfg = replace(config if config is not None else TrainConfig(),
                  epochs=epochs)
    model = factory(np.random.default_rng(seed))
    trainer = Trainer(model, dataset, cfg)
    _, test_days = dataset.split(cfg.window)

    tracer = Tracer()
    with use_tracer(tracer):
        start = time.perf_counter()
        trainer.fit()
        train_elapsed = (time.perf_counter() - start) / epochs

        start = time.perf_counter()
        trainer.predict(test_days)
        test_elapsed = time.perf_counter() - start
    return SpeedMeasurement(name=name,
                            train_seconds_per_epoch=train_elapsed,
                            test_seconds=test_elapsed,
                            phases=tracer.snapshot())

