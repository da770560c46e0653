"""Registry of every comparison model, keyed by the paper's Table IV names.

Central construction point used by the benchmark harness: given a dataset
and a seeded generator, ``make_predictor`` builds a fresh
:class:`~repro.baselines.base.StockPredictor` for any named model, and
``adapt_config`` applies the per-family objective conventions (REG/CLF
models train without the ranking loss; RAN models use the paper's combined
loss).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.model import RTGCN, RTGCN_VARIANTS
from ..core.trainer import TrainConfig
from ..data import StockDataset
from .base import ModulePredictor, StockPredictor, regression_config
from .classifiers import ARIMAClassifier, AdversarialLSTMClassifier
from .darnn import DARNN
from .mtdnn import MTDNN
from .recurrent import LSTMScorer, SFMScorer
from .wsae_lstm import WSAELSTM
from .rl import DQNTrader, IRDPGTrader
from .rsr import RSR
from .rtgat import RTGAT
from .sthan import STHANSR

MakeFn = Callable[[StockDataset, np.random.Generator, int], StockPredictor]


@dataclass(frozen=True)
class BaselineSpec:
    """Metadata + constructor for one comparison model."""

    name: str
    category: str                       # CLF / REG / RL / RAN / Ours
    can_rank: bool
    uses_relations: bool
    make: MakeFn
    adapt_config: Callable[[TrainConfig], TrainConfig] = lambda cfg: cfg
    #: RT-GCN relation strategy ("uniform"/"weight"/"time") for the models
    #: that are direct RTGCN variants (from
    #: :data:`repro.core.model.RTGCN_VARIANTS`); None for everything else.
    strategy: Optional[str] = None


def _module(factory, category: str, uses_relations: bool) -> MakeFn:
    def make(dataset: StockDataset, rng: np.random.Generator,
             seed: int) -> StockPredictor:
        return ModulePredictor(lambda gen: factory(dataset, gen), rng=rng,
                               category=category,
                               uses_relations=uses_relations)
    return make


def _rtgcn(strategy: str) -> MakeFn:
    return _module(lambda ds, gen: RTGCN(ds.relations, strategy=strategy,
                                         rng=gen), "Ours", True)


def _registry() -> Dict[str, BaselineSpec]:
    specs: List[BaselineSpec] = [
        # --- classification-based -------------------------------------
        BaselineSpec(
            "ARIMA", "CLF", can_rank=False, uses_relations=False,
            make=lambda ds, rng, seed: ARIMAClassifier(seed=seed),
            adapt_config=regression_config),
        BaselineSpec(
            "A-LSTM", "CLF", can_rank=False, uses_relations=False,
            make=lambda ds, rng, seed: AdversarialLSTMClassifier(seed=seed),
            adapt_config=regression_config),
        # --- regression-based -----------------------------------------
        BaselineSpec(
            "SFM", "REG", can_rank=True, uses_relations=False,
            make=_module(lambda ds, gen: SFMScorer(rng=gen), "REG", False),
            adapt_config=regression_config),
        BaselineSpec(
            "LSTM", "REG", can_rank=True, uses_relations=False,
            make=_module(lambda ds, gen: LSTMScorer(rng=gen), "REG", False),
            adapt_config=regression_config),
        # Extra relation-blind baselines beyond Table IV: DA-RNN [5] (the
        # strongest attention-RNN regressor of the related work) and the
        # full wavelet-denoised WSAE-LSTM of Bao et al. [16].
        BaselineSpec(
            "DA-RNN", "REG", can_rank=True, uses_relations=False,
            make=_module(lambda ds, gen: DARNN(rng=gen), "REG", False),
            adapt_config=regression_config),
        BaselineSpec(
            "WSAE-LSTM", "REG", can_rank=True, uses_relations=False,
            make=_module(lambda ds, gen: WSAELSTM(rng=gen), "REG", False),
            adapt_config=regression_config),
        BaselineSpec(
            "MTDNN", "REG", can_rank=True, uses_relations=False,
            make=lambda ds, rng, seed: MTDNN(seed=seed),
            adapt_config=regression_config),
        # --- reinforcement-learning-based ------------------------------
        BaselineSpec(
            "DQN", "RL", can_rank=True, uses_relations=False,
            make=lambda ds, rng, seed: DQNTrader(seed=seed)),
        BaselineSpec(
            "iRDPG", "RL", can_rank=True, uses_relations=False,
            make=lambda ds, rng, seed: IRDPGTrader(seed=seed)),
        # --- ranking-based ---------------------------------------------
        BaselineSpec(
            "Rank_LSTM", "RAN", can_rank=True, uses_relations=False,
            make=_module(lambda ds, gen: LSTMScorer(rng=gen), "RAN", False)),
        BaselineSpec(
            "RSR_I", "RAN", can_rank=True, uses_relations=True,
            make=_module(lambda ds, gen: RSR(ds.relations, mode="implicit",
                                             rng=gen), "RAN", True)),
        BaselineSpec(
            "RSR_E", "RAN", can_rank=True, uses_relations=True,
            make=_module(lambda ds, gen: RSR(ds.relations, mode="explicit",
                                             rng=gen), "RAN", True)),
        BaselineSpec(
            "STHAN-SR", "RAN", can_rank=True, uses_relations=True,
            make=_module(lambda ds, gen: STHANSR(ds.relations, rng=gen),
                         "RAN", True)),
        BaselineSpec(
            "RT-GAT", "RAN", can_rank=True, uses_relations=True,
            make=_module(lambda ds, gen: RTGAT(ds.relations, rng=gen),
                         "RAN", True)),
    ]
    # --- ours -----------------------------------------------------------
    specs += [BaselineSpec(name, "Ours", can_rank=True, uses_relations=True,
                           make=_rtgcn(strategy), strategy=strategy)
              for name, strategy in RTGCN_VARIANTS.items()]
    return {spec.name: spec for spec in specs}


BASELINE_SPECS: Dict[str, BaselineSpec] = _registry()

#: models beyond the paper's Table IV (available to the CLI/protocol but
#: excluded from the Table IV bench so its rows match the paper)
EXTRA_MODELS: List[str] = ["DA-RNN", "WSAE-LSTM", "MTDNN"]

#: Table IV's row order
TABLE_IV_MODELS: List[str] = [name for name in BASELINE_SPECS
                              if name not in EXTRA_MODELS]

#: the ranking-based subset compared in Figure 5
RANKING_MODELS: List[str] = ["Rank_LSTM", "RSR_I", "RSR_E", "STHAN-SR",
                             "RT-GAT", "RT-GCN (U)", "RT-GCN (W)",
                             "RT-GCN (T)"]


def available_baselines() -> List[str]:
    """Names of every registered comparison model."""
    return list(BASELINE_SPECS)


def rtgcn_strategies() -> Dict[str, str]:
    """Registered-name → relation-strategy map for direct RTGCN variants.

    Derived from the specs, which are built from
    :data:`repro.core.model.RTGCN_VARIANTS` — the table the CLI and
    :mod:`repro.serve` read to checkpoint and serve an RT-GCN.
    """
    return {name: spec.strategy for name, spec in BASELINE_SPECS.items()
            if spec.strategy is not None}


def get_spec(name: str) -> BaselineSpec:
    """Look up a model's registry entry by its Table IV name."""
    if name not in BASELINE_SPECS:
        raise KeyError(f"unknown model {name!r}; available: "
                       f"{available_baselines()}")
    return BASELINE_SPECS[name]


def make_predictor(name: str, dataset: StockDataset, seed: int = 0
                   ) -> StockPredictor:
    """Build a fresh predictor for model ``name`` with run seed ``seed``.

    The per-model entropy uses a *stable* hash (CRC32) — Python's built-in
    string hash is salted per process, which would make "seeded" runs
    irreproducible across interpreter invocations.
    """
    spec = get_spec(name)
    stable = zlib.crc32(name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([stable, seed]))
    return spec.make(dataset, rng, seed)
