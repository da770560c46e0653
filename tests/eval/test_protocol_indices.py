"""Experiment protocol, market indices, speed harness, case study."""

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig
from repro.eval import (cap_weighted_index, compare_paired,
                        compare_to_published, find_connected_clique,
                        index_cumulative_returns, market_index_curves,
                        measure_speed, price_weighted_index, run_case_study,
                        run_experiment, run_named_experiment,
                        strongest_baseline)
from repro.eval.protocol import ExperimentResult


def quick_config(**overrides):
    defaults = dict(window=6, epochs=1, max_train_days=8, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestIndices:
    def test_cap_weighted_starts_at_one(self, rng):
        prices = rng.uniform(10, 100, size=(5, 30))
        caps = rng.uniform(1, 10, size=5)
        level = cap_weighted_index(prices, caps)
        assert np.isclose(level[0], 1.0)
        assert level.shape == (30,)

    def test_cap_weighting_tilts_to_giants(self):
        prices = np.ones((2, 10))
        prices[0] *= np.linspace(1, 2, 10)      # stock 0 doubles
        caps = np.array([1000.0, 1.0])           # stock 0 dominates
        level = cap_weighted_index(prices, caps)
        assert level[-1] > 1.9

    def test_price_weighted_picks_priciest(self):
        prices = np.ones((5, 10))
        prices[2] *= 100.0
        level = price_weighted_index(prices, num_constituents=1)
        assert np.allclose(level, 100.0)

    def test_index_cumulative_returns_alignment(self):
        level = np.array([100.0, 110.0, 99.0, 99.0])
        curve = index_cumulative_returns(level, [0, 1, 2])
        assert np.isclose(curve[0], 0.10)
        assert np.isclose(curve[1], 0.10 - 0.10)

    def test_market_curves_for_us_market(self, nasdaq_mini):
        _, test_days = nasdaq_mini.split(6)
        curves = market_index_curves(nasdaq_mini, test_days)
        assert set(curves) == {"S&P 500", "DJI"}
        assert all(len(v) == len(test_days) for v in curves.values())

    def test_market_curves_for_csi(self, csi_mini):
        _, test_days = csi_mini.split(6)
        curves = market_index_curves(csi_mini, test_days)
        assert set(curves) == {"CSI 300"}

    def test_caps_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cap_weighted_index(rng.uniform(1, 2, (3, 5)), np.ones(4))


class TestProtocol:
    def test_run_experiment_aggregates(self, nasdaq_mini):
        result = run_experiment(
            "rtgcn-u",
            lambda gen: RTGCN(nasdaq_mini.relations, strategy="uniform",
                              relational_filters=4, rng=gen),
            nasdaq_mini, quick_config(), n_runs=2)
        assert len(result.runs) == 2
        assert result.summary()["MRR"].n_runs == 2
        assert len(result.train_seconds) == 2

    def test_runs_use_different_seeds(self, nasdaq_mini):
        result = run_experiment(
            "rtgcn-u",
            lambda gen: RTGCN(nasdaq_mini.relations, strategy="uniform",
                              relational_filters=4, rng=gen),
            nasdaq_mini, quick_config(), n_runs=2)
        # Different init seeds -> different predictions (almost surely).
        assert result.runs[0]["MRR"] != result.runs[1]["MRR"]

    def test_run_named_experiment_classifier_mrr_nan(self, nasdaq_mini):
        result = run_named_experiment("ARIMA", nasdaq_mini, quick_config(),
                                      n_runs=1)
        assert np.isnan(result.runs[0]["MRR"])
        assert np.isfinite(result.runs[0]["IRR-5"])

    def test_run_named_experiment_ranker(self, nasdaq_mini):
        result = run_named_experiment("Rank_LSTM", nasdaq_mini,
                                      quick_config(), n_runs=1)
        assert np.isfinite(result.runs[0]["MRR"])

    def test_compare_paired_detects_dominance(self):
        ours = ExperimentResult("ours", [{"IRR-5": 1.0 + 0.01 * i}
                                         for i in range(10)], [], [])
        base = ExperimentResult("base", [{"IRR-5": 0.5 + 0.01 * i}
                                         for i in range(10)], [], [])
        outcome = compare_paired(ours, base, "IRR-5")
        assert outcome.p_value < 0.05

    def test_compare_to_published(self):
        ours = ExperimentResult("ours", [{"MRR": 0.5 + 0.01 * i}
                                         for i in range(10)], [], [])
        outcome = compare_to_published(ours, "MRR", 0.3)
        assert outcome.p_value < 0.05
        weak = compare_to_published(ours, "MRR", 0.56)
        assert weak.p_value > 0.05

    def test_strongest_baseline(self):
        results = {
            "a": ExperimentResult("a", [{"IRR-5": 0.1}], [], []),
            "b": ExperimentResult("b", [{"IRR-5": 0.9}], [], []),
        }
        assert strongest_baseline(results, "IRR-5") == "b"

    def test_strongest_baseline_empty_rejected(self):
        with pytest.raises(ValueError):
            strongest_baseline({}, "MRR")


class TestExperimentResume:
    @staticmethod
    def factory(dataset):
        return lambda gen: RTGCN(dataset.relations, strategy="uniform",
                                 relational_filters=4, rng=gen)

    def test_resume_skips_completed_runs_identically(self, csi_mini,
                                                     tmp_path):
        cfg = quick_config()
        db = tmp_path / "exp.sqlite"
        baseline = run_experiment("resume-check", self.factory(csi_mini),
                                  csi_mini, cfg, n_runs=3, base_seed=1)

        calls = []

        def crash_on_third(gen):
            calls.append(1)
            if len(calls) > 2:
                raise RuntimeError("simulated crash at run 2")
            return self.factory(csi_mini)(gen)

        with pytest.raises(RuntimeError, match="simulated crash"):
            run_experiment("resume-check", crash_on_third, csi_mini, cfg,
                           n_runs=3, base_seed=1, store=db)

        resumed_calls = []

        def counting(gen):
            resumed_calls.append(1)
            return self.factory(csi_mini)(gen)

        resumed = run_experiment("resume-check", counting, csi_mini, cfg,
                                 n_runs=3, base_seed=1, store=db)
        assert len(resumed_calls) == 1    # only run 2 re-executed
        assert resumed.runs == baseline.runs    # aggregate is unchanged

        # Another protocol shape is another fingerprint: its runs are
        # executed, never mixed with the stored three.
        resumed_calls.clear()
        run_experiment("resume-check", counting, csi_mini, cfg, n_runs=2,
                       base_seed=1, store=db)
        assert len(resumed_calls) == 2

    def test_out_of_order_journal_rows_resume(self, csi_mini, tmp_path):
        """Parallel completion order must not confuse the resume logic."""
        from repro.eval.protocol import _experiment_fingerprint
        from repro.store import ExperimentStore

        cfg = quick_config()
        baseline = run_experiment("resume-check", self.factory(csi_mini),
                                  csi_mini, cfg, n_runs=3, base_seed=1)
        store = ExperimentStore(tmp_path / "exp.sqlite")
        fingerprint = _experiment_fingerprint(cfg, 3, 1)
        # Store runs 2 then 0 — as a 2-worker pool might complete them.
        for index in (2, 0):
            store.record_run("resume-check", fingerprint, index,
                             baseline.runs[index])

        calls = []

        def counting(gen):
            calls.append(1)
            return self.factory(csi_mini)(gen)

        resumed = run_experiment("resume-check", counting, csi_mini, cfg,
                                 n_runs=3, base_seed=1, store=store)
        assert len(calls) == 1          # only the missing run 1 executed
        assert resumed.runs == baseline.runs


class TestSpeed:
    def test_measure_speed_fields(self, nasdaq_mini):
        m = measure_speed(
            "rtgcn", lambda gen: RTGCN(nasdaq_mini.relations,
                                       relational_filters=4, rng=gen),
            nasdaq_mini, quick_config(max_train_days=5), epochs=1)
        assert m.train_seconds_per_epoch > 0
        assert m.test_seconds > 0

    def test_speedup_over(self, nasdaq_mini):
        from repro.eval import SpeedMeasurement
        fast = SpeedMeasurement("fast", 1.0, 0.5)
        slow = SpeedMeasurement("slow", 4.0, 1.0)
        ratio = fast.speedup_over(slow)
        assert np.isclose(ratio["train"], 4.0)
        assert np.isclose(ratio["test"], 2.0)

    def test_speedup_degenerate_self_time_is_nan(self):
        from repro.eval import SpeedMeasurement
        instant = SpeedMeasurement("instant", 0.0, 0.5)
        slow = SpeedMeasurement("slow", 4.0, 1.0)
        with pytest.warns(RuntimeWarning, match="undefined"):
            ratio = instant.speedup_over(slow)
        assert np.isnan(ratio["train"])      # no bogus huge speedup
        assert np.isclose(ratio["test"], 2.0)

    def test_speedup_degenerate_other_time_is_nan(self):
        from repro.eval import SpeedMeasurement
        mine = SpeedMeasurement("mine", 1.0, 1.0)
        broken = SpeedMeasurement("broken", 0.0, 0.0)
        with pytest.warns(RuntimeWarning):
            ratio = mine.speedup_over(broken)
        assert np.isnan(ratio["train"]) and np.isnan(ratio["test"])

    def test_measure_speed_captures_phases(self, nasdaq_mini):
        m = measure_speed(
            "rtgcn", lambda gen: RTGCN(nasdaq_mini.relations,
                                       relational_filters=4, rng=gen),
            nasdaq_mini, quick_config(max_train_days=5), epochs=1)
        for phase in ("data_prep", "forward", "backward",
                      "optimizer_step", "inference"):
            assert phase in m.phases, phase
            assert m.phases[phase]["count"] > 0


class TestCaseStudy:
    def test_clique_is_connected(self, nasdaq_mini):
        clique = find_connected_clique(nasdaq_mini, 5)
        assert len(set(clique)) == 5
        adj = nasdaq_mini.relations.binary_adjacency()
        sub = adj[np.ix_(clique, clique)]
        assert sub.sum() > 0

    def test_clique_size_validated(self, csi_mini):
        with pytest.raises(ValueError):
            find_connected_clique(csi_mini, 100)

    def test_case_study_artifacts(self, nasdaq_mini):
        study = run_case_study(nasdaq_mini, config=quick_config(),
                               num_days=6)
        assert len(study.symbols) == 5
        assert study.predicted_heatmap.shape == (5, 6)
        assert study.actual_heatmap.shape == (5, 6)
        assert study.edge_weights.shape == (5, 5)
        assert study.normalized_prices.shape[0] == 5
        assert np.allclose(study.normalized_prices[:, 0], 1.0)
        assert len(study.days) == 6
