"""Builders for the two relation sources of the paper (§V-A-2, Table III).

- *Industry relations*: stocks under the same sector-industry label are
  connected, one relation type per industry ("If two stocks are under the
  same industry, we regard this industry as a relation between these two
  stocks").
- *Wiki relations*: typed company-to-company facts (supplier-of, owned-by,
  founded-by, ...).  The paper pulls these from Wikidata; we sample typed
  pairs to the reported sparsity.  Each sampled wiki pair also carries a
  hidden *directed influence* (lead–lag strength) that the market simulator
  uses, so the relational signal the model can exploit genuinely flows along
  these edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..graph import RelationMatrix
from .universe import StockUniverse

_WIKI_RELATION_STEMS = [
    "supplier_of", "owned_by", "founded_by", "subsidiary_of", "partner_of",
    "competitor_of", "licensor_of", "investor_in", "board_member_shared",
    "joint_venture_with", "distributor_for", "spun_off_from",
    "creditor_of", "franchiser_of", "technology_provider_to",
    "manufacturer_for", "brand_owner_of", "patent_licensee_of",
    "marketing_partner_of", "logistics_provider_to", "reinsurer_of",
    "landlord_of", "outsourcing_client_of", "data_provider_to",
    "component_supplier_of", "contract_researcher_for", "co_developer_with",
    "merger_target_of",
]


def wiki_type_pool(count: int) -> List[str]:
    """Return ``count`` distinct wiki relation type names."""
    names: List[str] = []
    suffix = 0
    while len(names) < count:
        for stem in _WIKI_RELATION_STEMS:
            label = stem if suffix == 0 else f"{stem}_{suffix}"
            names.append(f"wiki:{label}")
            if len(names) == count:
                return names
        suffix += 1
    return names


def build_industry_relations(universe: StockUniverse) -> RelationMatrix:
    """Connect same-industry stocks; one relation type per industry.

    Industries with fewer than two members produce no edges but still count
    as relation types only when they appear in the universe — matching how
    the paper counts "types" as distinct industries among the listed stocks.
    """
    industries = universe.industries()
    type_names = [f"industry:{name}" for name in industries]
    triples = []
    for k, members in enumerate(industries.values()):
        members = np.asarray(members, dtype=np.int64)
        first, second = np.triu_indices(len(members), k=1)
        triples.append(np.column_stack([members[first], members[second],
                                        np.full(len(first), k)]))
    return RelationMatrix(len(universe), type_names,
                          np.concatenate(triples) if triples else ())


@dataclass(frozen=True)
class DirectedInfluence:
    """Hidden lead–lag effect along a wiki relation.

    ``target``'s return at day ``t`` receives ``strength`` times
    ``source``'s return at day ``t-1``.  This is what makes wiki relations
    informative (the AAPL→LENS example of the paper's Figure 1(b)).
    """

    source: int
    target: int
    strength: float


@dataclass
class WikiRelationSet:
    """Sampled wiki relations plus the influences they induce."""

    matrix: RelationMatrix
    influences: List[DirectedInfluence]


def build_wiki_relations(universe: StockUniverse, num_types: int,
                         target_pair_ratio: float,
                         rng: Optional[np.random.Generator] = None,
                         influence_range: Tuple[float, float] = (0.25, 0.50),
                         ) -> WikiRelationSet:
    """Sample typed wiki relations to a target sparsity.

    Pairs are drawn uniformly; each linked pair gets 1–2 relation types
    (companies such as Alphabet/Google hold several facts).  Types are
    assigned with a Zipf bias so a few types (ownership, supply) dominate,
    as in Wikidata.
    """
    if num_types < 1:
        raise ValueError("num_types must be >= 1")
    gen = rng if rng is not None else np.random.default_rng()
    n = len(universe)
    total_pairs = n * (n - 1) // 2
    wanted = int(round(target_pair_ratio * total_pairs))
    type_names = wiki_type_pool(num_types)
    type_weights = (np.arange(1, num_types + 1, dtype=np.float64)) ** -1.1
    type_weights /= type_weights.sum()

    triples: List[Tuple[int, int, int]] = []
    influences: List[DirectedInfluence] = []
    seen = set()
    attempts = 0
    while len(seen) < wanted and attempts < 50 * max(wanted, 1):
        attempts += 1
        i, j = gen.integers(0, n, size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        fact_count = 1 + int(gen.uniform() < 0.15)
        types = gen.choice(num_types, size=fact_count, replace=False,
                           p=type_weights)
        triples.extend((i, j, k) for k in types)
        lo, hi = influence_range
        influences.append(DirectedInfluence(
            source=int(i), target=int(j),
            strength=float(gen.uniform(lo, hi))))
    # Guarantee every type occurs at least once so the reported type count
    # matches Table III even for small universes.
    used = {int(k) for _, _, k in triples}
    for k in range(num_types):
        if k in used:
            continue
        if not seen:
            break
        i, j = next(iter(seen))
        triples.append((i, j, k))
    matrix = RelationMatrix(n, type_names, triples)
    return WikiRelationSet(matrix=matrix, influences=influences)

