"""Evaluation: metrics, backtests, indices, protocol, speed, case study."""

from .backtest import (BacktestResult, oracle_backtest, random_backtest,
                       run_backtest)
from .case_study import CaseStudy, find_connected_clique, run_case_study
from .grid import (GridPoint, GridSearchResult, PAPER_ALPHA_GRID,
                   PAPER_WINDOW_GRID, grid_search, validation_split)
from .indices import (cap_weighted_index, index_cumulative_returns,
                      market_index_curves, price_weighted_index)
from .metrics import (daily_topn_returns, irr, irr_curve, kendall_tau, mrr,
                      ndcg_at_n, precision_at_n, ranking_metrics,
                      reciprocal_rank_of_top1)
from .protocol import (ExperimentResult, compare_paired,
                       compare_to_published, run_experiment,
                       run_named_experiment, strongest_baseline)
from .speed import SpeedMeasurement, measure_speed

__all__ = [
    "mrr", "irr", "irr_curve", "daily_topn_returns", "precision_at_n",
    "ndcg_at_n", "kendall_tau", "ranking_metrics",
    "reciprocal_rank_of_top1",
    "BacktestResult", "run_backtest", "oracle_backtest", "random_backtest",
    "cap_weighted_index", "price_weighted_index", "index_cumulative_returns",
    "market_index_curves",
    "ExperimentResult", "run_experiment", "run_named_experiment",
    "compare_paired", "compare_to_published", "strongest_baseline",
    "SpeedMeasurement", "measure_speed",
    "CaseStudy", "run_case_study", "find_connected_clique",
    "grid_search", "GridSearchResult", "GridPoint", "validation_split",
    "PAPER_WINDOW_GRID", "PAPER_ALPHA_GRID",
]
