"""repro — reproduction of "Relational Temporal Graph Convolutional
Networks for Ranking-Based Stock Prediction" (Zheng et al., ICDE 2023).

The package is layered bottom-up:

- :mod:`repro.tensor` — NumPy reverse-mode autodiff (PyTorch stand-in);
- :mod:`repro.nn` / :mod:`repro.optim` — layers and optimizers;
- :mod:`repro.graph` — relation matrices, G_RT, the three relation-aware
  strategies (Eqs. 3–5);
- :mod:`repro.data` — factor-model market simulator, relation generators,
  feature pipeline, market presets;
- :mod:`repro.core` — the RT-GCN model, losses (Eqs. 7–9), trainer;
- :mod:`repro.baselines` — the 11 comparison models of Table IV/V;
- :mod:`repro.eval` — MRR/IRR metrics, backtester, indices, the 15-run
  protocol, speed measurement, the Figure-8 case study;
- :mod:`repro.stats` — Wilcoxon signed-rank tests;
- :mod:`repro.ckpt` — fault-tolerant training state: atomic checksummed
  checkpoints, keep-last-k retention, bitwise-identical resume, fault
  injection (see docs/checkpointing.md);
- :mod:`repro.obs` — profiler, tracer, and JSON run telemetry.

Quickstart
----------
>>> from repro import load_market, RTGCN, Trainer, TrainConfig
>>> from repro.eval import ranking_metrics
>>> dataset = load_market("nasdaq-mini", seed=0)
>>> model = RTGCN(dataset.relations, strategy="time")
>>> result = Trainer(model, dataset, TrainConfig(epochs=5)).run()
>>> ranking_metrics(result.predictions, result.actuals)    # doctest: +SKIP
"""

from .ckpt import (CheckpointCallback, CheckpointManager,
                   TrainingCheckpoint)
from .core import RTGCN, TrainConfig, Trainer, TrainResult
from .data import available_markets, load_market
from .graph import RelationMatrix, RelationTemporalGraph

__version__ = "1.0.0"

__all__ = [
    "RTGCN", "Trainer", "TrainConfig", "TrainResult",
    "load_market", "available_markets",
    "RelationMatrix", "RelationTemporalGraph",
    "TrainingCheckpoint", "CheckpointManager", "CheckpointCallback",
    "__version__",
]
