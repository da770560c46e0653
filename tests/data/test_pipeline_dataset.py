"""Feature pipeline (§V-A steps 1–4), dataset object, market presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (FEATURE_WINDOWS, WARMUP_DAYS, FeaturePanel,
                        MARKET_SPECS, WikiRelationSet, available_markets,
                        chronological_split, compute_return_ratios,
                        load_market, moving_average)


class TestMovingAverage:
    def test_constant_series(self):
        prices = np.full((2, 30), 5.0)
        ma = moving_average(prices, 5)
        assert np.allclose(ma[:, 4:], 5.0)
        assert np.isnan(ma[:, :4]).all()

    def test_matches_manual_mean(self, rng):
        prices = rng.uniform(1, 10, size=(1, 25))
        ma = moving_average(prices, 10)
        assert np.isclose(ma[0, 15], prices[0, 6:16].mean())

    def test_length_one_is_identity(self, rng):
        prices = rng.uniform(1, 10, size=(3, 12))
        assert np.allclose(moving_average(prices, 1), prices)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.ones((1, 3)), 5)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.ones((1, 10)), 0)


class TestReturnRatios:
    def test_eq_10(self):
        prices = np.array([[100.0, 110.0, 99.0]])
        r = compute_return_ratios(prices)
        assert np.isclose(r[0, 1], 0.10)
        assert np.isclose(r[0, 2], -0.10)
        assert r[0, 0] == 0.0

    def test_flat_prices_zero_returns(self):
        r = compute_return_ratios(np.full((2, 10), 42.0))
        assert np.allclose(r, 0.0)


class TestFeaturePanel:
    def make_panel(self, rng, stocks=4, days=80):
        prices = np.exp(rng.standard_normal((stocks, days)).cumsum(axis=1)
                        * 0.02 + 2.0)
        return FeaturePanel.from_prices(prices), prices

    def test_raw_layout(self, rng):
        panel, prices = self.make_panel(rng)
        assert panel.raw.shape == (4, 4, 80)
        assert np.allclose(panel.raw[0], prices)     # feature 0 = close

    def test_window_features_shape(self, rng):
        panel, _ = self.make_panel(rng)
        feats = panel.window_features(40, window=15, num_features=3)
        assert feats.shape == (15, 4, 3)

    def test_step1_normalization_anchor_is_one(self, rng):
        panel, _ = self.make_panel(rng)
        feats = panel.window_features(40, window=10)
        assert np.allclose(feats[-1, :, 0], 1.0)   # close / close_T = 1

    def test_no_future_leakage_in_features(self, rng):
        """Perturbing prices after day t must not change features at t."""
        panel, prices = self.make_panel(rng)
        feats_before = panel.window_features(40, window=10)
        bumped = prices.copy()
        bumped[:, 41:] *= 3.0
        panel2 = FeaturePanel.from_prices(bumped)
        feats_after = panel2.window_features(40, window=10)
        assert np.allclose(feats_before, feats_after)

    def test_first_valid_day(self, rng):
        panel, _ = self.make_panel(rng)
        assert panel.first_valid_day(15) == WARMUP_DAYS + 14
        with pytest.raises(ValueError):
            panel.window_features(panel.first_valid_day(15) - 1, 15)

    def test_day_out_of_range(self, rng):
        panel, _ = self.make_panel(rng)
        with pytest.raises(IndexError):
            panel.window_features(200, window=10)

    def test_invalid_feature_count(self, rng):
        panel, _ = self.make_panel(rng)
        with pytest.raises(ValueError):
            panel.window_features(40, window=10, num_features=5)

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(ValueError):
            FeaturePanel.from_prices(np.zeros((2, 30)))

    def test_feature_windows_constant(self):
        assert FEATURE_WINDOWS == (1, 5, 10, 20)
        assert WARMUP_DAYS == 19


class TestChronologicalSplit:
    def test_no_overlap_and_ordered(self):
        train, test = chronological_split(300, 200, 50, window=15)
        assert len(train) == 200 and len(test) == 50
        assert max(train) < min(test)
        assert test[-1] == 298        # last labelable day

    def test_respects_warmup(self):
        train, test = chronological_split(300, 200, 50, window=15)
        assert min(train) >= WARMUP_DAYS + 14

    def test_too_many_days_rejected(self):
        with pytest.raises(ValueError):
            chronological_split(100, 90, 50, window=15)


class TestMarketPresets:
    def test_available_markets(self):
        names = available_markets()
        for expected in ["nasdaq", "nyse", "csi", "nasdaq-mini"]:
            assert expected in names

    def test_full_specs_match_table_ii_and_iii(self):
        nasdaq = MARKET_SPECS["nasdaq"]
        assert nasdaq.num_stocks == 854
        assert nasdaq.num_industries == 97
        assert nasdaq.wiki_types == 41
        assert nasdaq.train_days == 1295 and nasdaq.test_days == 207
        nyse = MARKET_SPECS["nyse"]
        assert nyse.num_stocks == 1405 and nyse.num_industries == 108
        csi = MARKET_SPECS["csi"]
        assert csi.num_stocks == 242 and csi.wiki_types is None
        assert csi.test_days == 139

    def test_unknown_market_rejected(self):
        with pytest.raises(KeyError):
            load_market("lse")

    def test_mini_dataset_consistency(self, nasdaq_mini):
        ds = nasdaq_mini
        assert ds.num_stocks == 48
        assert ds.wiki_relations is not None
        train, test = ds.split(15)
        assert len(train) == 220 and len(test) == 60
        assert max(train) < min(test)

    def test_csi_mini_has_no_wiki(self, csi_mini):
        assert csi_mini.wiki_relations is None
        assert csi_mini.relations is csi_mini.industry_relations
        with pytest.raises(KeyError):
            csi_mini.relations_of("wiki")

    def test_relations_of_sources(self, nasdaq_mini):
        industry = nasdaq_mini.relations_of("industry")
        wiki = nasdaq_mini.relations_of("wiki")
        both = nasdaq_mini.relations_of("all")
        assert both.num_types == industry.num_types + wiki.num_types
        with pytest.raises(ValueError):
            nasdaq_mini.relations_of("news")

    def test_merged_relations_built_once_per_source_pair(self):
        ds = load_market("nasdaq-mini", seed=0)
        first = ds.relations
        assert ds.relations is first
        assert ds.relations.cache_token() == first.cache_token()
        # a reassigned source merges again, with the new relations in it
        wiki = ds.wiki_relations
        ds.wiki_relations = WikiRelationSet(
            wiki.matrix.subgraph(list(range(ds.num_stocks))),
            wiki.influences)
        second = ds.relations
        assert second is not first
        assert ds.relations is second
        assert np.array_equal(second.triples, first.triples)
        ds.wiki_relations = WikiRelationSet(
            wiki.matrix.select_types([0]), wiki.influences)
        third = ds.relations
        assert third is not second
        assert third.num_types == ds.industry_relations.num_types + 1
        assert third.cache_token() != first.cache_token()

    def test_same_seed_reproducible(self):
        a = load_market("csi-mini", seed=11)
        b = load_market("csi-mini", seed=11)
        assert np.allclose(a.prices, b.prices)
        assert a.universe.symbols == b.universe.symbols

    def test_different_seed_differs(self):
        a = load_market("csi-mini", seed=1)
        b = load_market("csi-mini", seed=2)
        assert not np.allclose(a.prices, b.prices)

    def test_spec_overrides(self):
        ds = load_market("csi-mini", seed=0,
                         spec_overrides={"train_days": 60})
        train, _ = ds.split(10)
        assert len(train) == 60

    def test_labels_match_return_ratios(self, nasdaq_mini):
        ds = nasdaq_mini
        _, test = ds.split(10)
        day = test[0]
        expected = ds.prices[:, day + 1] / ds.prices[:, day] - 1.0
        assert np.allclose(ds.label(day), expected)

    def test_label_of_last_day_rejected(self, nasdaq_mini):
        with pytest.raises(IndexError):
            nasdaq_mini.label(nasdaq_mini.num_days - 1)

    def test_samples_iterator(self, nasdaq_mini):
        days = nasdaq_mini.split(10)[0][:3]
        samples = list(nasdaq_mini.samples(days, window=10, num_features=2))
        assert len(samples) == 3
        day, feats, label = samples[0]
        assert feats.shape == (10, 48, 2)
        assert label.shape == (48,)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=60, max_value=200),
       st.integers(min_value=5, max_value=20),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_split_partition_property(num_days, window, seed):
    """Train/test partition the tail of usable days without overlap."""
    rng = np.random.default_rng(seed)
    first = WARMUP_DAYS + window - 1
    usable = num_days - 1 - first
    if usable < 4:
        return
    train_n = int(rng.integers(1, usable - 2))
    test_n = int(rng.integers(1, usable - train_n))
    train, test = chronological_split(num_days, train_n, test_n, window)
    assert len(set(train) & set(test)) == 0
    assert all(t >= first for t in train + test)
    assert all(t + 1 < num_days for t in train + test)
