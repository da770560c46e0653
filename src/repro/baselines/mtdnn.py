"""MTDNN: multi-scale two-way deep neural network (Liu et al., IJCAI 2020).

The paper's introduction describes MTDNN as "automatically learn[ing]
multi-scale patterns from wavelet-based and downsampling-based information
by using eXtreme gradient boosting and RNN".  This extra baseline
reproduces that two-way design against the ranking protocol:

- **Boosting way**: per stock-day, the window features are expanded into a
  multi-scale design vector (the raw window plus Haar approximation bands
  plus stride-downsampled versions) and a from-scratch gradient-boosted
  tree ensemble (:mod:`repro.ml`) regresses the next-day return.
- **Recurrent way**: a GRU consumes the same window per stock and
  regresses the next-day return; trained with the shared protocol.
- The final score is the mean of the two ways' standardized scores.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List

import numpy as np

from ..core.trainer import TrainConfig, Trainer
from ..data import StockDataset
from ..ml import GradientBoostingRegressor
from ..signal import multiscale_features
from .base import PredictorResult, StockPredictor, collect_actuals
from .rl import PolicyNetwork


def multiscale_design_row(window: np.ndarray, levels: int = 2
                          ) -> np.ndarray:
    """Flatten one stock's ``(T, D)`` window into a multi-scale vector.

    Concatenates, per feature: the raw series, its Haar approximation
    bands, and a stride-2 downsampled copy — the wavelet-based and
    downsampling-based "ways" of the MTDNN design.
    """
    window = np.asarray(window, dtype=np.float64)
    series = window.T                       # (D, T)
    max_levels = max(1, int(np.floor(np.log2(max(series.shape[-1], 2)))))
    pyramid = multiscale_features(series, levels=min(levels, max_levels))
    downsampled = series[:, ::2]
    parts = [band.reshape(-1) for band in pyramid]
    parts.append(downsampled.reshape(-1))
    return np.concatenate(parts)


def _design_matrix(dataset: StockDataset, days: List[int],
                   config: TrainConfig) -> np.ndarray:
    rows = []
    for day in days:
        features = dataset.features(int(day), config.window,
                                    config.num_features)
        for stock in range(features.shape[1]):
            rows.append(multiscale_design_row(features[:, stock, :]))
    return np.stack(rows)


def _standardize(scores: np.ndarray) -> np.ndarray:
    return (scores - scores.mean()) / (scores.std() + 1e-12)


class MTDNN(StockPredictor):
    """Two-way multi-scale predictor: boosted trees + GRU, blended."""

    can_rank = True
    category = "REG"
    uses_relations = False

    def __init__(self, n_estimators: int = 60, tree_depth: int = 3,
                 gru_hidden: int = 32, max_boost_days: int = 60,
                 seed: int = 0):
        self.n_estimators = n_estimators
        self.tree_depth = tree_depth
        self.gru_hidden = gru_hidden
        #: boosted-way training uses the most recent days only — the dense
        #: stock-day design matrix grows as days × stocks and tree fitting
        #: is the expensive part
        self.max_boost_days = max_boost_days
        self.seed = seed

    def fit_predict(self, dataset: StockDataset, config: TrainConfig
                    ) -> PredictorResult:
        cfg = replace(config, alpha=0.0)    # both ways are regressors
        train_days, test_days = dataset.split(cfg.window)
        if cfg.max_train_days is not None:
            train_days = train_days[-cfg.max_train_days:]

        start = time.perf_counter()
        # --- boosting way ---------------------------------------------
        boost_days = train_days[-self.max_boost_days:]
        design = _design_matrix(dataset, boost_days, cfg)
        targets = np.concatenate([dataset.label(int(day))
                                  for day in boost_days])
        booster = GradientBoostingRegressor(
            n_estimators=self.n_estimators, max_depth=self.tree_depth,
            learning_rate=0.1, subsample=0.7, seed=self.seed)
        booster.fit(design, targets)
        # --- recurrent way --------------------------------------------
        gru = PolicyNetwork(cfg.num_features, self.gru_hidden,
                            rng=np.random.default_rng(self.seed))
        trainer = Trainer(gru, dataset, cfg)
        trainer.fit()
        train_seconds = time.perf_counter() - start

        start = time.perf_counter()
        gru_scores = trainer.predict(test_days)
        rows = []
        for index, day in enumerate(test_days):
            day_design = _design_matrix(dataset, [day], cfg)
            boost_scores = booster.predict(day_design)
            blended = (_standardize(boost_scores)
                       + _standardize(gru_scores[index])) / 2.0
            rows.append(blended)
        test_seconds = time.perf_counter() - start
        return PredictorResult(train_seconds=train_seconds,
                               test_seconds=test_seconds,
                               test_days=list(test_days),
                               predictions=np.stack(rows),
                               actuals=collect_actuals(dataset, test_days))
