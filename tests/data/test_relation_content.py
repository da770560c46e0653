"""Pinned relation content of the market presets.

The mini markets pin a CRC32 of the dense multi-hot tensors (industry,
wiki, merged) so any change to how relations are built or stored must
reproduce them byte for byte.  NASDAQ-854 pins counts and Table III
ratios from the relation builders alone, seeded as ``load_market`` seeds
them, without simulating prices.
"""

import zlib

import numpy as np
import pytest

from repro.data import (MARKET_SPECS, build_industry_relations,
                        build_wiki_relations, generate_universe, load_market)


def _crc(relations):
    dense = relations.dense()
    assert dense.dtype == np.float64
    return zlib.crc32(np.ascontiguousarray(dense).tobytes())


MINI_CRCS = {
    "nasdaq-mini": (1290993505, 4126725368, 591158304),
    "nyse-mini": (4015104115, 2175719603, 967890559),
    "csi-mini": (4242360459, None, 4242360459),
}


@pytest.mark.parametrize("market", sorted(MINI_CRCS))
def test_mini_dense_tensors_pinned(market):
    dataset = load_market(market)
    industry_crc, wiki_crc, merged_crc = MINI_CRCS[market]
    assert _crc(dataset.industry_relations) == industry_crc
    if dataset.wiki_relations is None:
        assert wiki_crc is None
    else:
        assert _crc(dataset.wiki_relations.matrix) == wiki_crc
    assert _crc(dataset.relations) == merged_crc


def _nasdaq_relations(seed=0):
    """NASDAQ-854's industry and wiki relations, seeded as ``load_market``."""
    spec = MARKET_SPECS["nasdaq"]
    root = np.random.SeedSequence([zlib.crc32(b"nasdaq"), seed])
    universe_rng, wiki_rng, _ = (np.random.default_rng(s)
                                 for s in root.spawn(3))
    universe = generate_universe(spec.name, spec.num_stocks,
                                 spec.num_industries,
                                 spec.industry_pair_ratio, rng=universe_rng)
    industry = build_industry_relations(universe)
    wiki = build_wiki_relations(universe, spec.wiki_types,
                                spec.wiki_pair_ratio, rng=wiki_rng)
    return industry, wiki.matrix


def test_nasdaq_854_relation_counts_pinned():
    industry, wiki = _nasdaq_relations()
    merged = industry.merge(wiki)
    assert (industry.num_types, wiki.num_types) == (97, 41)
    assert merged.num_stocks == 854 and merged.num_types == 138
    assert sum(merged.type_usage().values()) == 20_672
    assert merged.edge_count() == 20_455
    assert industry.relation_ratio() == 0.05329584796461586
    assert wiki.relation_ratio() == 0.003000842871694062
    assert merged.relation_ratio() == 0.05615941531610434
