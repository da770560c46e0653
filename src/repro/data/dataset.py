"""The ranking-based stock-prediction dataset object.

Bundles everything one experiment needs: the universe, the relation
matrices (industry, wiki, merged), the simulated price history, the feature
panel, and the chronological train/test day split.  A *sample* is one
trading day ``t``: features are the window ending at ``t`` for every stock
simultaneously (shape ``(T, N, D)``), the label is every stock's day-``t+1``
return ratio (shape ``(N,)``) — exactly the ranking formulation of §III-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..graph import RelationMatrix
from .pipeline import (FeaturePanel, chronological_split,
                       compute_return_ratios)
from .relation_builder import WikiRelationSet
from .simulator import SimulatedMarket
from .universe import StockUniverse


@dataclass
class StockDataset:
    """A complete market dataset for ranking-based stock prediction."""

    market: str
    universe: StockUniverse
    industry_relations: RelationMatrix
    wiki_relations: Optional[WikiRelationSet]
    simulated: SimulatedMarket
    train_day_count: int
    test_day_count: int

    def __post_init__(self):
        self.panel = FeaturePanel.from_prices(self.simulated.prices)
        self.return_ratios = compute_return_ratios(self.simulated.prices)

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    @property
    def relations(self) -> RelationMatrix:
        """Merged relation matrix (industry + wiki when available).

        Merged once per pair of source matrices: repeated reads return
        the same object (and ``cache_token``), while reassigning
        ``industry_relations`` or ``wiki_relations`` merges again.
        """
        if self.wiki_relations is None:
            return self.industry_relations
        industry, wiki = self.industry_relations, self.wiki_relations.matrix
        memo = self.__dict__.get("_merged")
        if memo is None or memo[0] is not industry or memo[1] is not wiki:
            memo = (industry, wiki, industry.merge(wiki))
            self._merged = memo
        return memo[2]

    def relations_of(self, source: str) -> RelationMatrix:
        """Select one relation source: ``"industry"``, ``"wiki"``, ``"all"``."""
        if source == "all":
            return self.relations
        if source == "industry":
            return self.industry_relations
        if source == "wiki":
            if self.wiki_relations is None:
                raise KeyError(f"market {self.market!r} has no wiki "
                               "relations (like CSI in the paper)")
            return self.wiki_relations.matrix
        raise ValueError(f"unknown relation source {source!r}")

    # ------------------------------------------------------------------
    # shapes
    # ------------------------------------------------------------------
    @property
    def num_stocks(self) -> int:
        return len(self.universe)

    @property
    def num_days(self) -> int:
        return self.simulated.num_days

    @property
    def prices(self) -> np.ndarray:
        return self.simulated.prices

    # ------------------------------------------------------------------
    # samples
    # ------------------------------------------------------------------
    def split(self, window: int) -> Tuple[List[int], List[int]]:
        """Train/test prediction-day lists for the given window size."""
        return chronological_split(self.num_days, self.train_day_count,
                                   self.test_day_count, window)

    def features(self, day: int, window: int,
                 num_features: int = 4) -> np.ndarray:
        """Window features for prediction day ``day``: ``(T, N, D)``."""
        return self.panel.window_features(day, window, num_features)

    def label(self, day: int) -> np.ndarray:
        """Ground-truth day-``day+1`` return ratio for every stock: ``(N,)``."""
        if day + 1 >= self.num_days:
            raise IndexError(f"day {day} has no following day to label with")
        return self.return_ratios[:, day + 1].copy()

    def samples(self, days: List[int], window: int, num_features: int = 4
                ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(day, features, label)`` for each prediction day."""
        for day in days:
            yield day, self.features(day, window, num_features), \
                self.label(day)

    def __repr__(self) -> str:
        wiki = (self.wiki_relations.matrix.num_types
                if self.wiki_relations else 0)
        return (f"StockDataset(market={self.market!r}, "
                f"stocks={self.num_stocks}, days={self.num_days}, "
                f"industry_types={self.industry_relations.num_types}, "
                f"wiki_types={wiki}, train={self.train_day_count}, "
                f"test={self.test_day_count})")
