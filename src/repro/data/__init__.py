"""Market data substrate: universes, relations, simulator, pipeline, presets."""

from .dataset import StockDataset
from .markets import MARKET_SPECS, MarketSpec, available_markets, load_market
from .news import NewsAugmentedDataset, NewsConfig, generate_sentiment
from .pipeline import (FEATURE_WINDOWS, WARMUP_DAYS, FeaturePanel,
                       chronological_split, compute_return_ratios,
                       moving_average)
from .relation_builder import (DirectedInfluence, WikiRelationSet,
                               build_industry_relations, build_wiki_relations,
                               wiki_type_pool)
from .simulator import (CrashEvent, SimulatedMarket, SimulationConfig,
                        simulate_market)
from .stream import (SCENARIOS, DayEvents, EdgeEvent, ListingEvent,
                     RegimePhase, StreamScenario, StreamingMarket,
                     flash_crash, get_scenario, low_vol_grind,
                     sector_rotation)
from .universe import (Stock, StockUniverse, allocate_group_sizes,
                       generate_universe, industry_name_pool,
                       pair_ratio_of_sizes)

__all__ = [
    "StockDataset", "MarketSpec", "MARKET_SPECS", "available_markets",
    "load_market",
    "NewsAugmentedDataset", "NewsConfig", "generate_sentiment",
    "FeaturePanel", "FEATURE_WINDOWS", "WARMUP_DAYS", "moving_average",
    "compute_return_ratios", "chronological_split",
    "DirectedInfluence", "WikiRelationSet", "build_industry_relations",
    "build_wiki_relations", "wiki_type_pool",
    "CrashEvent", "SimulationConfig", "SimulatedMarket", "simulate_market",
    "StreamScenario", "SCENARIOS", "get_scenario", "StreamingMarket",
    "DayEvents", "EdgeEvent", "ListingEvent", "RegimePhase",
    "flash_crash", "sector_rotation",
    "low_vol_grind",
    "Stock", "StockUniverse", "generate_universe", "allocate_group_sizes",
    "industry_name_pool", "pair_ratio_of_sizes",
]
