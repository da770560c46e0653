"""Figure 8 case study: qualitative prediction analysis of a 5-stock clique.

The paper visualizes (a) the relational subgraph of five connected NASDAQ
stocks with learned edge widths, (b) their metadata, (c) the heatmap of the
model's daily return-ratio predictions over a month of the test period, and
(d) the normalized ground-truth prices.  This module extracts all four
artifacts from a trained model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.model import RTGCN
from ..core.trainer import TrainConfig, Trainer
from ..data import StockDataset
from ..graph.strategies import TimeSensitiveStrategy, WeightStrategy
from ..tensor import Tensor, no_grad


@dataclass
class CaseStudy:
    """Artifacts of the Figure 8 panel for a chosen stock subset."""

    symbols: List[str]                  # panel (b): stock identities
    industries: List[str]
    edge_weights: np.ndarray            # panel (a): (k, k) learned weights
    relation_kinds: np.ndarray          # (k, k) 0=no edge, 1=industry, 2=wiki+
    predicted_heatmap: np.ndarray       # panel (c): (k, days) scores
    actual_heatmap: np.ndarray          # (k, days) true return ratios
    normalized_prices: np.ndarray       # panel (d): (k, days) p_t / p_0
    days: List[int]


def find_connected_clique(dataset: StockDataset, size: int = 5) -> List[int]:
    """Pick ``size`` stocks forming a well-connected relational subgraph.

    Greedy: seed with the highest-degree stock, then repeatedly add the
    stock with the most links into the current set.
    """
    adjacency = dataset.relations.binary_adjacency()
    if adjacency.shape[0] < size:
        raise ValueError(f"universe of {adjacency.shape[0]} stocks cannot "
                         f"supply a subset of {size}")
    chosen = [int(np.argmax(adjacency.sum(axis=1)))]
    while len(chosen) < size:
        links = adjacency[:, chosen].sum(axis=1)
        links[chosen] = -1.0
        chosen.append(int(np.argmax(links)))
    return chosen


def _learned_edge_weights(model: RTGCN, features: Tensor,
                          subset: Sequence[int]) -> np.ndarray:
    """Extract the model's learned pairwise weights on the subset.

    For the weight/time-sensitive strategies this is the strategy's raw
    weighted adjacency (averaged over time for the latter); the uniform
    strategy reports the binary adjacency.
    """
    layer = model._modules["layer0"]
    if layer.relational is None:
        raise ValueError("case study needs a model with relational "
                         "convolution")
    strategy = layer.relational.strategy
    idx = np.asarray(list(subset))
    with no_grad():
        if isinstance(strategy, TimeSensitiveStrategy):
            adj = strategy(features).data.mean(axis=0)
        elif isinstance(strategy, WeightStrategy):
            adj = strategy.raw_adjacency().data
        else:
            adj = strategy.relations.binary_adjacency()
    return adj[np.ix_(idx, idx)].copy()


def run_case_study(dataset: StockDataset, model: Optional[RTGCN] = None,
                   config: Optional[TrainConfig] = None,
                   subset: Optional[Sequence[int]] = None,
                   num_days: int = 22, seed: int = 0) -> CaseStudy:
    """Train (if needed) and extract the Figure 8 artifacts.

    Parameters
    ----------
    dataset:
        Market to study.
    model:
        A trained RT-GCN; when ``None`` a time-sensitive RT-GCN is trained
        with ``config``.
    subset:
        Stock indices to visualize; defaults to a connected 5-clique.
    num_days:
        Length of the test-period excerpt (the paper shows one month).
    """
    cfg = config if config is not None else TrainConfig()
    if model is None:
        model = RTGCN(dataset.relations, num_features=cfg.num_features,
                      strategy="time",
                      rng=np.random.default_rng(seed))
        Trainer(model, dataset, cfg).fit()
    chosen = list(subset) if subset is not None \
        else find_connected_clique(dataset, 5)

    _, test_days = dataset.split(cfg.window)
    days = test_days[:num_days]
    trainer = Trainer(model, dataset, cfg)
    predictions = trainer.predict(days)          # (days, N)
    actuals = np.stack([dataset.label(day) for day in days])

    idx = np.asarray(chosen)
    first_day = days[0]
    prices = dataset.prices[idx][:, first_day:days[-1] + 1]
    normalized = prices / prices[:, :1]

    features = Tensor(dataset.features(days[0], cfg.window,
                                       cfg.num_features))
    weights = _learned_edge_weights(model, features, chosen)

    sub_rel = dataset.relations.subgraph(chosen)
    kinds = np.zeros((len(chosen), len(chosen)))
    binary = sub_rel.binary_adjacency()
    kinds[binary > 0] = 1.0
    wiki_types = [i for i, name in enumerate(sub_rel.type_names)
                  if name.startswith("wiki:")]
    if wiki_types:
        wiki_adj = sub_rel.select_types(wiki_types).binary_adjacency() > 0
        kinds[wiki_adj] = 2.0

    universe = dataset.universe
    return CaseStudy(
        symbols=[universe[i].symbol for i in chosen],
        industries=[universe[i].industry for i in chosen],
        edge_weights=weights,
        relation_kinds=kinds,
        predicted_heatmap=predictions[:, idx].T.copy(),
        actual_heatmap=actuals[:, idx].T.copy(),
        normalized_prices=normalized,
        days=list(days),
    )
