"""Grid search over training hyperparameters (paper §V-B-4).

"The same tuning strategy and grid search are employed to select the
optimal hyperparameters on all graph-based methods" — the paper tunes the
window size T over {5, 10, 15, 20} and α over {0.01, 0.1, 0.2}.  This
module provides that loop for any registry model or module factory, with
the selection done on a *validation* tail of the training period so the
test period stays untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.trainer import TrainConfig, Trainer
from ..data import StockDataset
from ..nn.module import Module
from ..nn.random import fork_rng
from .metrics import ranking_metrics

#: the paper's §V-B-4 grids
PAPER_WINDOW_GRID = (5, 10, 15, 20)
PAPER_ALPHA_GRID = (0.01, 0.1, 0.2)


@dataclass
class GridPoint:
    """One evaluated hyperparameter combination."""

    params: Dict[str, object]
    metrics: Dict[str, float]
    score: float


@dataclass
class GridSearchResult:
    """All evaluated points, sorted best-first."""

    points: List[GridPoint]
    metric: str

    @property
    def best(self) -> GridPoint:
        return self.points[0]

    def best_config(self, base: Optional[TrainConfig] = None) -> TrainConfig:
        """The base config with the winning parameters substituted in."""
        config = base if base is not None else TrainConfig()
        return replace(config, **self.best.params)

    def table(self) -> List[Dict[str, object]]:
        return [{**p.params, "score": p.score} for p in self.points]


def validation_split(dataset: StockDataset, window: int,
                     validation_days: int) -> tuple:
    """Carve a validation tail off the training period.

    Returns ``(train_days, validation_days_list)``; the dataset's real test
    period is never touched.
    """
    train_days, _ = dataset.split(window)
    if validation_days >= len(train_days):
        raise ValueError(f"validation_days={validation_days} exhausts the "
                         f"{len(train_days)}-day training period")
    return train_days[:-validation_days], train_days[-validation_days:]


def _grid_fingerprint(base: TrainConfig, param_grid: Dict[str, Sequence],
                      metric: str, validation_days: int, seed: int,
                      market: str) -> str:
    """Natural key for one grid search in the experiment store.

    Digests everything that determines the evaluated scores: the base
    config, the full grid (so point indices are stable), the selection
    metric, the validation split, the seed, and the market.
    """
    import hashlib
    import json
    from dataclasses import asdict

    payload = {"config": asdict(base),
               "grid": {name: [repr(v) for v in param_grid[name]]
                        for name in sorted(param_grid)},
               "metric": metric, "validation_days": validation_days,
               "seed": seed, "market": market}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    return f"grid-{digest[:16]}"


def grid_search(factory: Callable[[np.random.Generator, TrainConfig], Module],
                dataset: StockDataset,
                param_grid: Dict[str, Sequence],
                base_config: Optional[TrainConfig] = None,
                metric: str = "IRR-5",
                validation_days: int = 30,
                seed: int = 0,
                workers: int = 1,
                store: Optional[object] = None,
                dedup: bool = True) -> GridSearchResult:
    """Exhaustive search over ``param_grid`` scored on a validation tail.

    Parameters
    ----------
    factory:
        ``factory(rng, config)`` builds a fresh scoring model; it receives
        the candidate config so models can depend on e.g.
        ``config.num_features``.
    param_grid:
        Mapping of :class:`TrainConfig` field names to candidate values,
        e.g. ``{"window": PAPER_WINDOW_GRID, "alpha": PAPER_ALPHA_GRID}``.
    metric:
        Ranking metric to maximize on the validation tail.
    validation_days:
        Length of the training tail held out for selection.
    workers:
        Fan the grid points out across this many forked worker processes
        (:class:`repro.parallel.ExperimentPool`).  Each point is seeded
        purely by its combination index, so the evaluated scores — and
        therefore the selected configuration — are bitwise-identical to
        the serial search.
    store:
        An :class:`~repro.store.ExperimentStore` (or path) that records
        every evaluated point (``kind='grid'``).  With ``dedup=True`` a
        re-run restores already-stored points instead of retraining
        them; the restored scores are bitwise-equal (sqlite REAL is the
        same IEEE-754 double).
    """
    if not param_grid:
        raise ValueError("param_grid must contain at least one parameter")
    base = base_config if base_config is not None else TrainConfig()
    names = list(param_grid)
    combos = list(product(*(param_grid[n] for n in names)))

    def evaluate_combo(combo_index: int) -> GridPoint:
        params = dict(zip(names, combos[combo_index]))
        config = replace(base, **params)
        train_days, valid_days = validation_split(dataset, config.window,
                                                  validation_days)
        run_config = replace(config, seed=seed)
        model = factory(fork_rng(seed * 10000 + combo_index), run_config)
        trainer = Trainer(model, dataset, run_config,
                          train_days=train_days)
        trainer.fit()
        predictions = trainer.predict(valid_days)
        actuals = np.stack([dataset.label(day) for day in valid_days])
        metrics = ranking_metrics(predictions, actuals)
        return GridPoint(params=params, metrics=metrics,
                         score=metrics[metric])

    fingerprint = None
    experiment = f"grid@{dataset.market}"
    restored: Dict[int, GridPoint] = {}
    if store is not None:
        from ..store.db import as_store

        store = as_store(store)
        fingerprint = _grid_fingerprint(base, param_grid, metric,
                                        validation_days, seed,
                                        dataset.market)
        if dedup:
            for index, run in store.completed_runs(
                    fingerprint, experiment).items():
                if 0 <= index < len(combos) and metric in run.metrics:
                    restored[index] = GridPoint(
                        params=dict(zip(names, combos[index])),
                        metrics=dict(run.metrics),
                        score=run.metrics[metric])

    pending = [i for i in range(len(combos)) if i not in restored]
    evaluated: Dict[int, GridPoint] = {}
    if pending:
        if workers > 1 and len(pending) > 1:
            from ..parallel import ExperimentPool, fork_available
            if fork_available():
                pool = ExperimentPool(min(workers, len(pending)),
                                      lambda task: evaluate_combo(
                                          pending[task]))
                outcome = pool.run(list(range(len(pending))))
                evaluated = {pending[i]: outcome[i]
                             for i in range(len(pending))}
            else:
                evaluated = {i: evaluate_combo(i) for i in pending}
        else:
            evaluated = {i: evaluate_combo(i) for i in pending}

    if store is not None:
        for index, point in evaluated.items():
            store.record_run(
                experiment, fingerprint, index, dict(point.metrics),
                seed=seed * 10000 + index, kind="grid",
                config={**{name: repr(value) for name, value
                           in point.params.items()},
                        "metric": metric,
                        "validation_days": validation_days},
                n_runs=len(combos), base_seed=seed)

    points = [restored.get(i) or evaluated[i] for i in range(len(combos))]
    points.sort(key=lambda p: -p.score)
    return GridSearchResult(points=points, metric=metric)
