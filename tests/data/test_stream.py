"""StreamingMarket: determinism, fingerprints, event semantics, regimes.

The stream is a seed-deterministic *recording*: two markets built from
equal scenarios must be event-for-event identical, and the per-day
deltas must reconstruct exactly the adjacency the generator tracked —
the property the delta-update equivalence suite and the store's
fingerprint dedup both stand on.
"""

import json

import numpy as np
import pytest

from repro.data import (SCENARIOS, DayEvents, StreamingMarket,
                        StreamScenario, flash_crash, get_scenario,
                        low_vol_grind, sector_rotation)
from repro.data.stream import MIN_EDGE_WEIGHT
from repro.graph import DynamicNormalizedAdjacency


@pytest.fixture(scope="module")
def smoke_market():
    return StreamingMarket(get_scenario("smoke"))


class TestDeterminism:
    def test_equal_scenarios_replay_identically(self, smoke_market):
        twin = StreamingMarket(get_scenario("smoke"))
        for a, b in zip(smoke_market.replay(), twin.replay()):
            assert a.day == b.day
            assert a.regime == b.regime
            assert a.deltas == b.deltas
            assert a.edges == b.edges
            assert a.listings == b.listings
            assert a.market_return == b.market_return
        np.testing.assert_array_equal(smoke_market.returns, twin.returns)

    def test_different_seed_changes_the_stream(self):
        base = StreamingMarket(get_scenario("smoke"))
        other = StreamingMarket(get_scenario("smoke", seed=99))
        assert any(a.deltas != b.deltas
                   for a, b in zip(base.replay(), other.replay()))

    def test_replay_is_repeatable(self, smoke_market):
        first = [ev.deltas for ev in smoke_market.replay()]
        second = [ev.deltas for ev in smoke_market.replay()]
        assert first == second


class TestFingerprints:
    def test_fingerprint_is_stable_and_seed_sensitive(self):
        a = get_scenario("default")
        assert a.fingerprint() == get_scenario("default").fingerprint()
        assert a.fingerprint() != get_scenario(
            "default", seed=1).fingerprint()
        assert a.fingerprint() != get_scenario("smoke").fingerprint()

    def test_all_presets_validate_and_differ(self):
        prints = {name: scenario.fingerprint()
                  for name, scenario in SCENARIOS.items()}
        assert len(set(prints.values())) == len(prints)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("warp-speed")

    def test_invalid_overrides_rejected(self):
        with pytest.raises(ValueError, match="num_stocks"):
            get_scenario("smoke", num_stocks=2)
        with pytest.raises(ValueError, match="base_density"):
            get_scenario("smoke", base_density=0.0)


class TestEventSemantics:
    def test_deltas_reconstruct_tracked_adjacency(self, smoke_market):
        # replaying the deltas through the dynamic graph must land on
        # adjacency_at(day) for every day — deltas are complete
        dynamic = DynamicNormalizedAdjacency(
            smoke_market.base_adjacency(), mode="csr")
        eye = np.eye(smoke_market.scenario.num_stocks)
        for events in smoke_market.replay():
            dynamic.apply_delta(events.deltas)
            np.testing.assert_array_equal(
                dynamic.unnormalized_dense() - eye,
                smoke_market.adjacency_at(events.day))

    def test_no_weight_below_minimum_survives(self, smoke_market):
        for events in smoke_market.replay():
            for _, _, weight in events.deltas:
                assert weight == 0.0 or weight >= MIN_EDGE_WEIGHT

    def test_payload_is_json_safe_and_round_trips(self, smoke_market):
        events = next(iter(smoke_market.replay()))
        payload = events.to_payload()
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert decoded["day"] == events.day
        assert [tuple(d) for d in decoded["deltas"]] == [
            (int(i), int(j), float(w)) for i, j, w in events.deltas]

    def test_delist_frees_slot_and_listing_reuses_it(self):
        # high listing churn so both directions occur in a short run
        market = StreamingMarket(get_scenario(
            "smoke", listing_rate=0.9, num_days=20))
        delisted, listed = [], []
        for events in market.replay():
            for ev in events.listings:
                (delisted if ev.action == "delist" else listed).append(ev)
        assert delisted, "no delist event generated"
        assert listed, "no listing event generated"
        reused = {ev.slot for ev in delisted} & {ev.slot for ev in listed}
        assert reused, "no freed slot was reused"
        assert all(ev.symbol.startswith("NEW") for ev in listed)

    def test_mna_collapses_target_relations(self):
        market = StreamingMarket(get_scenario("smoke", mna_rate=1.0))
        merges = [edge for events in market.replay()
                  for edge in events.edges if edge.kind == "merge"]
        assert merges, "no M&A event at rate 1.0"
        # each merge day ends with one strong owned_by edge
        strong = [e for e in merges if e.weight == 2.5]
        assert strong and all(e.relation == "wiki:owned_by"
                              for e in strong)


class TestRegimes:
    def test_scripted_phases_cover_their_days(self):
        scenario = get_scenario("smoke")
        regimes = [ev.regime for ev in
                   StreamingMarket(scenario).replay()]
        assert regimes[3] == "flash_crash" and regimes[4] == "flash_crash"
        assert regimes[6] == "low_vol_grind"
        assert regimes[0] == "calm"

    def test_flash_crash_days_draw_down(self):
        market = StreamingMarket(get_scenario("default"))
        crash_days = [ev.day for ev in market.replay()
                      if ev.regime == "flash_crash"]
        calm_days = [ev.day for ev in market.replay()
                     if ev.regime == "calm"]
        crash_ret = np.mean([market.events[d].market_return
                             for d in crash_days])
        calm_ret = np.mean([market.events[d].market_return
                            for d in calm_days])
        assert crash_ret < -0.02 < calm_ret

    def test_low_vol_grind_is_quieter_than_calm(self):
        market = StreamingMarket(get_scenario("default"))
        by_regime = {}
        for ev in market.replay():
            by_regime.setdefault(ev.regime, []).append(
                market.returns[:, ev.day])
        grind = np.std(np.concatenate(by_regime["low_vol_grind"]))
        calm = np.std(np.concatenate(by_regime["calm"]))
        assert grind < calm

    def test_phase_constructors(self):
        assert flash_crash(3).covers(4) and not flash_crash(3).covers(5)
        assert sector_rotation(0).rotation
        assert low_vol_grind(2).vol_multiplier < 1.0

    def test_invalid_regime_rejected(self):
        from repro.data import RegimePhase
        with pytest.raises(ValueError, match="empty or negative"):
            StreamScenario(name="bad",
                           regimes=(RegimePhase("x", 0, 0),))


class TestSummary:
    def test_summary_counts_every_event(self, smoke_market):
        summary = smoke_market.summary()
        assert summary["num_stocks"] == 24
        assert summary["edge_events"] == sum(
            len(ev.edges) for ev in smoke_market.replay())
        assert summary["fingerprint"] == \
            smoke_market.scenario.fingerprint()
        assert set(summary["event_kinds"]) <= {"add", "decay", "remove",
                                               "merge"}

    def test_day_events_default_factories_are_independent(self):
        a, b = DayEvents(day=0, regime="calm"), DayEvents(day=1,
                                                          regime="calm")
        a.deltas.append((0, 1, 1.0))
        assert b.deltas == []
