"""Streaming markets: time-evolving relation graphs + scripted regimes.

The static pipeline (:mod:`repro.data.markets`) emits one frozen relation
tensor and one fixed price history, so the paper's *time-sensitive*
relation-weight claim is only exercised through the model's attention —
relation importance never actually drifts in the data.  This module makes
it drift: a :class:`StreamingMarket` replays a seed-deterministic sequence
of per-day :class:`DayEvents`, each carrying

- **edge events** — typed relation edges appearing (new supplier links),
  decaying exponentially toward removal, being churned out, or collapsing
  under an M&A (the acquired company's relations fold into one strong
  ``owned_by`` edge to the acquirer);
- **listing events** — stocks delisting mid-window (every incident edge
  zeroed, slot freed) and new stocks listing into freed slots (universe
  remapping by slot reuse, so the adjacency keeps a fixed width);
- **regime context** — scripted market phases beyond the single COVID
  crash: flash crash, sector rotation, low-volatility grind — which
  modulate the synthetic return stream attached to each day.

Every event batch aggregates to a list of ``(i, j, weight)`` *deltas* with
set semantics (``weight == 0`` removes the edge) — exactly the input of
:meth:`repro.graph.DynamicNormalizedAdjacency.apply_delta`, so the serving
tier can ingest a day in O(touched rows) instead of renormalizing the
world.

Scenarios are declarative (:class:`StreamScenario`), content-fingerprinted
(sha256 over the canonical dict, seed included) so replays dedup in the
experiment store, and replayable: two :class:`StreamingMarket` instances
built from equal scenarios produce identical event streams.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .relation_builder import wiki_type_pool
from .universe import generate_universe

#: weight below which a decaying edge is dropped entirely
MIN_EDGE_WEIGHT = 0.05

#: drift / vol-multiplier of the unscripted background regime
CALM_DRIFT, CALM_VOL = 0.0003, 1.0


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegimePhase:
    """A scripted market phase occupying ``[start, start + days)``.

    ``rotation=True`` marks a sector-rotation phase: industry drifts
    alternate in sign and rotate over the phase, so relative industry
    performance (what the industry relation should pick up) flips while
    the market factor stays flat.
    """

    name: str
    start: int
    days: int
    drift: float = CALM_DRIFT
    vol_multiplier: float = CALM_VOL
    rotation: bool = False

    def covers(self, day: int) -> bool:
        return self.start <= day < self.start + self.days


def flash_crash(start: int) -> RegimePhase:
    """Two days of violent drawdown — the March-2020-in-miniature shock."""
    return RegimePhase("flash_crash", start, 2, drift=-0.06,
                       vol_multiplier=4.0)


def sector_rotation(start: int, days: int = 10) -> RegimePhase:
    """Flat market, alternating industry drifts rotating over the phase."""
    return RegimePhase("sector_rotation", start, days, drift=0.0,
                       vol_multiplier=1.2, rotation=True)


def low_vol_grind(start: int, days: int = 10) -> RegimePhase:
    """Slow steady climb at well-below-normal volatility."""
    return RegimePhase("low_vol_grind", start, days, drift=0.0008,
                       vol_multiplier=0.4)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeEvent:
    """One relation-edge change: ``weight`` is the new absolute value."""

    day: int
    i: int
    j: int
    weight: float                  # 0.0 = edge removed
    relation: str                  # e.g. "wiki:supplier_of"
    kind: str                      # add | decay | remove | merge


@dataclass(frozen=True)
class ListingEvent:
    """A stock leaving or (re)entering the universe at ``slot``."""

    day: int
    slot: int
    action: str                    # list | delist
    symbol: str


@dataclass
class DayEvents:
    """Everything that happened on one day, ingestion-ready.

    ``deltas`` aggregates the edge events into set-semantics edits
    ``(i, j, new_weight)`` — duplicates already resolved last-wins — the
    exact batch :meth:`DynamicNormalizedAdjacency.apply_delta` consumes.
    """

    day: int
    regime: str
    edges: List[EdgeEvent] = field(default_factory=list)
    listings: List[ListingEvent] = field(default_factory=list)
    deltas: List[Tuple[int, int, float]] = field(default_factory=list)
    market_return: float = 0.0

    def to_payload(self) -> dict:
        """JSON-safe dict for ``POST /v1/ingest``."""
        return {
            "day": self.day,
            "regime": self.regime,
            "deltas": [[int(i), int(j), float(w)]
                       for i, j, w in self.deltas],
            "listings": [{"slot": ev.slot, "action": ev.action,
                          "symbol": ev.symbol} for ev in self.listings],
            "market_return": float(self.market_return),
        }


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StreamScenario:
    """Declarative, fingerprintable description of a streaming market."""

    name: str
    num_stocks: int = 60
    num_industries: int = 8
    num_days: int = 40
    seed: int = 0
    base_density: float = 0.05     # fraction of pairs connected at day 0
    edge_add_rate: float = 2.0     # expected new edges per day (Poisson)
    edge_remove_rate: float = 1.0  # expected hard removals per day
    decay_half_life: float = 12.0  # days until a streamed edge halves
    mna_rate: float = 0.05         # P(M&A event) per day
    listing_rate: float = 0.08     # P(delist) and P(relist) per day
    regimes: Tuple[RegimePhase, ...] = ()

    def __post_init__(self):
        if self.num_stocks < 4:
            raise ValueError("num_stocks must be >= 4")
        if self.num_days < 1:
            raise ValueError("num_days must be >= 1")
        if not 0.0 < self.base_density < 1.0:
            raise ValueError("base_density must be in (0, 1)")
        if self.decay_half_life <= 0:
            raise ValueError("decay_half_life must be > 0")
        for phase in self.regimes:
            if phase.start < 0 or phase.days < 1:
                raise ValueError(f"regime {phase.name!r} has an empty or "
                                 "negative window")

    def to_dict(self) -> dict:
        return {
            "name": self.name, "num_stocks": self.num_stocks,
            "num_industries": self.num_industries,
            "num_days": self.num_days, "seed": self.seed,
            "base_density": self.base_density,
            "edge_add_rate": self.edge_add_rate,
            "edge_remove_rate": self.edge_remove_rate,
            "decay_half_life": self.decay_half_life,
            "mna_rate": self.mna_rate, "listing_rate": self.listing_rate,
            "regimes": [{"name": p.name, "start": p.start, "days": p.days,
                         "drift": p.drift,
                         "vol_multiplier": p.vol_multiplier,
                         "rotation": p.rotation} for p in self.regimes],
        }

    def fingerprint(self) -> str:
        """sha256 of the canonical scenario dict — the store dedup key."""
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


SCENARIOS: Dict[str, StreamScenario] = {
    # CI smoke: small + short, every event type still exercised.
    "smoke": StreamScenario(
        name="smoke", num_stocks=24, num_industries=4, num_days=12,
        base_density=0.10, edge_add_rate=2.0, edge_remove_rate=1.0,
        decay_half_life=6.0, mna_rate=0.15, listing_rate=0.2,
        regimes=(flash_crash(3), low_vol_grind(6, 4))),
    # Default replay scenario for `repro.cli stream`.
    "default": StreamScenario(
        name="default", num_stocks=60, num_industries=8, num_days=40,
        regimes=(flash_crash(8), sector_rotation(15, 10),
                 low_vol_grind(28, 8))),
    # The acceptance benchmark's universe: 500 stocks at 3 % density.
    "dense-500": StreamScenario(
        name="dense-500", num_stocks=500, num_industries=20, num_days=30,
        base_density=0.03, edge_add_rate=6.0, edge_remove_rate=3.0,
        mna_rate=0.1, listing_rate=0.1,
        regimes=(flash_crash(6), sector_rotation(12, 8),
                 low_vol_grind(22, 6))),
}


def get_scenario(name: str, **overrides) -> StreamScenario:
    """Look up a preset scenario, optionally overriding fields."""
    key = name.lower()
    if key not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: "
                       f"{sorted(SCENARIOS)}")
    scenario = SCENARIOS[key]
    return replace(scenario, **overrides) if overrides else scenario


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------
class StreamingMarket:
    """Seed-deterministic per-day event stream over an evolving universe.

    All events are generated eagerly at construction (the stream is a
    *recording*, not a live process), so :meth:`replay` is free to run
    any number of times and two instances built from equal scenarios are
    event-for-event identical — the property the store's fingerprint
    dedup and the CI smoke replay rely on.
    """

    def __init__(self, scenario: StreamScenario):
        self.scenario = scenario
        n = scenario.num_stocks
        # Same seed discipline as load_market: CRC32 of the name (string
        # hash() is process-salted) mixed with the scenario seed.
        root = np.random.SeedSequence(
            [zlib.crc32(f"stream:{scenario.name}".encode("utf-8")),
             scenario.seed])
        universe_rng, event_rng, return_rng = (
            np.random.default_rng(s) for s in root.spawn(3))
        self.universe = generate_universe(
            scenario.name.upper(), n, scenario.num_industries,
            industry_pair_ratio=0.08, rng=universe_rng)
        self._industry_of = np.array(
            [list(self.universe.industries()).index(s.industry)
             for s in self.universe.stocks])
        self._relation_pool = wiki_type_pool(8)
        self._base = self._sample_base_edges(event_rng)
        self.events: List[DayEvents] = []
        self.returns = np.zeros((n, scenario.num_days))
        self._generate(event_rng, return_rng)

    # -- construction ---------------------------------------------------
    def _sample_base_edges(self, rng: np.random.Generator
                           ) -> Dict[Tuple[int, int], float]:
        n = self.scenario.num_stocks
        total_pairs = n * (n - 1) // 2
        wanted = max(1, int(round(self.scenario.base_density * total_pairs)))
        edges: Dict[Tuple[int, int], float] = {}
        # Rejection sampling over pair ranks — no O(N²) materialization.
        while len(edges) < wanted:
            draw = rng.integers(0, n, size=(2 * (wanted - len(edges)), 2))
            for i, j in draw:
                if i == j:
                    continue
                key = (int(min(i, j)), int(max(i, j)))
                if key not in edges:
                    edges[key] = float(rng.uniform(0.5, 1.5))
                if len(edges) == wanted:
                    break
        return edges

    def _regime_at(self, day: int) -> Optional[RegimePhase]:
        for phase in self.scenario.regimes:
            if phase.covers(day):
                return phase
        return None

    def _generate(self, rng: np.random.Generator,
                  return_rng: np.random.Generator) -> None:
        sc = self.scenario
        n = sc.num_stocks
        weights = dict(self._base)          # current (i<j) -> weight
        streamed: Dict[Tuple[int, int], float] = {}  # decaying edges
        active = np.ones(n, dtype=bool)
        freed: List[int] = []
        decay = 0.5 ** (1.0 / sc.decay_half_life)
        listed_counter = 0
        beta = return_rng.uniform(0.6, 1.4, size=n)

        def neighbors_of(node: int) -> List[Tuple[int, int]]:
            return [key for key in weights if node in key]

        for day in range(sc.num_days):
            phase = self._regime_at(day)
            regime = phase.name if phase is not None else "calm"
            day_edges: List[EdgeEvent] = []
            day_listings: List[ListingEvent] = []
            delta_acc: Dict[Tuple[int, int], Tuple[float, str, str]] = {}

            def set_edge(i: int, j: int, w: float, relation: str,
                         kind: str) -> None:
                key = (min(i, j), max(i, j))
                if w < MIN_EDGE_WEIGHT:
                    w = 0.0
                if w == 0.0:
                    weights.pop(key, None)
                    streamed.pop(key, None)
                else:
                    weights[key] = w
                    if kind in ("add", "decay"):
                        streamed[key] = w
                delta_acc[key] = (w, relation, kind)

            # 1. exponential decay of streamed edges
            for key in list(streamed):
                set_edge(key[0], key[1], streamed[key] * decay,
                         "wiki:supplier_of", "decay")

            # 2. supplier churn: fresh edges in, old edges out
            for _ in range(rng.poisson(sc.edge_add_rate)):
                live = np.flatnonzero(active)
                if live.size < 2:
                    break
                i, j = rng.choice(live, size=2, replace=False)
                relation = self._relation_pool[
                    int(rng.integers(0, len(self._relation_pool)))]
                set_edge(int(i), int(j), float(rng.uniform(0.6, 1.4)),
                         relation, "add")
            removable = [k for k in weights
                         if active[k[0]] and active[k[1]]]
            for _ in range(rng.poisson(sc.edge_remove_rate)):
                if not removable:
                    break
                key = removable.pop(int(rng.integers(0, len(removable))))
                if key in weights:
                    set_edge(key[0], key[1], 0.0, "wiki:supplier_of",
                             "remove")

            # 3. M&A: acquirer absorbs the target's relations into one
            #    strong owned_by edge; the target's other edges collapse.
            if rng.uniform() < sc.mna_rate and active.sum() >= 3:
                live = np.flatnonzero(active)
                acquirer, target = (int(x) for x in
                                    rng.choice(live, size=2, replace=False))
                for key in neighbors_of(target):
                    other = key[0] if key[1] == target else key[1]
                    if other != acquirer:
                        set_edge(key[0], key[1], 0.0, "wiki:owned_by",
                                 "merge")
                set_edge(acquirer, target, 2.5, "wiki:owned_by", "merge")

            # 4. listings: delist frees a slot; a later listing reuses it
            if rng.uniform() < sc.listing_rate and active.sum() > 4:
                live = np.flatnonzero(active)
                gone = int(rng.choice(live))
                for key in neighbors_of(gone):
                    set_edge(key[0], key[1], 0.0, "wiki:supplier_of",
                             "remove")
                active[gone] = False
                freed.append(gone)
                day_listings.append(ListingEvent(
                    day, gone, "delist", self.universe.stocks[gone].symbol))
            if freed and rng.uniform() < sc.listing_rate:
                slot = freed.pop(0)
                active[slot] = True
                listed_counter += 1
                symbol = f"NEW{listed_counter:03d}"
                day_listings.append(ListingEvent(day, slot, "list", symbol))
                # The newcomer links to a few same-industry incumbents.
                peers = np.flatnonzero(
                    active & (self._industry_of == self._industry_of[slot]))
                peers = peers[peers != slot]
                for peer in rng.choice(
                        peers, size=min(3, peers.size), replace=False):
                    set_edge(slot, int(peer),
                             float(rng.uniform(0.6, 1.2)),
                             "industry:peer", "add")

            # 5. regime-modulated market return for the day
            drift = phase.drift if phase is not None else CALM_DRIFT
            vol = (phase.vol_multiplier if phase is not None
                   else CALM_VOL)
            market_ret = drift + return_rng.normal(0.0, 0.008) * vol
            industry_term = np.zeros(n)
            if phase is not None and phase.rotation:
                # Alternating industry drifts, phase-rotating by day.
                signs = np.where(
                    (self._industry_of + (day - phase.start)) % 2 == 0,
                    1.0, -1.0)
                industry_term = signs * 0.004
            self.returns[:, day] = (
                beta * market_ret + industry_term
                + return_rng.normal(0.0, 0.012 * vol, size=n))
            self.returns[~active, day] = 0.0

            for key, (w, relation, kind) in sorted(delta_acc.items()):
                day_edges.append(EdgeEvent(day, key[0], key[1], w,
                                           relation, kind))
            self.events.append(DayEvents(
                day=day, regime=regime, edges=day_edges,
                listings=day_listings,
                deltas=[(k[0], k[1], w)
                        for k, (w, _, _) in sorted(delta_acc.items())],
                market_return=float(market_ret)))
        self._final_active = active

    # -- views ----------------------------------------------------------
    def base_adjacency(self) -> np.ndarray:
        """Day-0 symmetric weighted adjacency (zero diagonal)."""
        n = self.scenario.num_stocks
        adj = np.zeros((n, n))
        for (i, j), w in self._base.items():
            adj[i, j] = adj[j, i] = w
        return adj

    def adjacency_at(self, day: int) -> np.ndarray:
        """Adjacency after replaying all deltas through ``day`` (tests)."""
        if not -1 <= day < self.scenario.num_days:
            raise ValueError(f"day {day} outside [-1, "
                             f"{self.scenario.num_days})")
        adj = self.base_adjacency()
        for events in self.events[:day + 1]:
            for i, j, w in events.deltas:
                adj[i, j] = adj[j, i] = w
        return adj

    def replay(self) -> Iterator[DayEvents]:
        """Iterate the recorded stream (repeatable, deterministic)."""
        return iter(self.events)

    def active_symbols(self) -> List[str]:
        """Symbols still listed after the final day."""
        return [s.symbol for s, live in
                zip(self.universe.stocks, self._final_active) if live]

    def summary(self) -> dict:
        kinds: Dict[str, int] = {}
        for ev in self.events:
            for edge in ev.edges:
                kinds[edge.kind] = kinds.get(edge.kind, 0) + 1
        return {
            "scenario": self.scenario.name,
            "fingerprint": self.scenario.fingerprint(),
            "num_stocks": self.scenario.num_stocks,
            "num_days": self.scenario.num_days,
            "base_edges": len(self._base),
            "edge_events": sum(len(ev.edges) for ev in self.events),
            "listing_events": sum(len(ev.listings) for ev in self.events),
            "event_kinds": kinds,
            "regimes": sorted({ev.regime for ev in self.events}),
        }


__all__ = [
    "MIN_EDGE_WEIGHT", "RegimePhase", "flash_crash", "sector_rotation",
    "low_vol_grind", "EdgeEvent", "ListingEvent", "DayEvents",
    "StreamScenario", "SCENARIOS", "get_scenario", "StreamingMarket",
]
