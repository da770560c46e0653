"""Grid search (§V-B-4) and the news-sentiment future-work extension."""

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig, Trainer
from repro.data import NewsAugmentedDataset, NewsConfig, generate_sentiment
from repro.eval import (PAPER_ALPHA_GRID, PAPER_WINDOW_GRID, grid_search,
                        validation_split)


class TestValidationSplit:
    def test_tail_held_out(self, nasdaq_mini):
        train, valid = validation_split(nasdaq_mini, window=10,
                                        validation_days=25)
        full_train, _ = nasdaq_mini.split(10)
        assert train + valid == full_train
        assert len(valid) == 25
        assert max(train) < min(valid)

    def test_exhausting_training_rejected(self, nasdaq_mini):
        with pytest.raises(ValueError):
            validation_split(nasdaq_mini, window=10, validation_days=10_000)


class TestGridSearch:
    def factory(self, dataset):
        return lambda gen, cfg: RTGCN(dataset.relations,
                                      num_features=cfg.num_features,
                                      strategy="uniform",
                                      relational_filters=4, rng=gen)

    def test_explores_full_grid(self, csi_mini):
        result = grid_search(self.factory(csi_mini), csi_mini,
                             {"window": [5, 8], "alpha": [0.0, 0.1]},
                             base_config=TrainConfig(epochs=1,
                                                     max_train_days=20),
                             validation_days=10)
        assert len(result.points) == 4
        params_seen = {tuple(sorted(p.params.items()))
                       for p in result.points}
        assert len(params_seen) == 4

    def test_sorted_best_first(self, csi_mini):
        result = grid_search(self.factory(csi_mini), csi_mini,
                             {"window": [5, 8]},
                             base_config=TrainConfig(epochs=1,
                                                     max_train_days=15),
                             validation_days=10)
        scores = [p.score for p in result.points]
        assert scores == sorted(scores, reverse=True)
        assert result.best.score == scores[0]

    def test_best_config_substitutes_params(self, csi_mini):
        result = grid_search(self.factory(csi_mini), csi_mini,
                             {"window": [5, 8]},
                             base_config=TrainConfig(epochs=1,
                                                     max_train_days=15),
                             validation_days=10)
        config = result.best_config(TrainConfig(epochs=99))
        assert config.window in (5, 8)
        assert config.epochs == 99

    def test_empty_grid_rejected(self, csi_mini):
        with pytest.raises(ValueError):
            grid_search(self.factory(csi_mini), csi_mini, {})

    def test_paper_grids_defined(self):
        assert PAPER_WINDOW_GRID == (5, 10, 15, 20)
        assert PAPER_ALPHA_GRID == (0.01, 0.1, 0.2)


class TestSentimentGeneration:
    def test_shape_and_range(self, nasdaq_mini):
        s = generate_sentiment(nasdaq_mini.return_ratios, NewsConfig(seed=1))
        assert s.shape == nasdaq_mini.return_ratios.shape
        assert np.all(np.abs(s) <= 1.0)

    def test_sparsity_matches_event_rate(self, nasdaq_mini):
        cfg = NewsConfig(event_rate=0.3, seed=2)
        s = generate_sentiment(nasdaq_mini.return_ratios, cfg)
        nonzero = (s[:, :-1] != 0).mean()
        assert abs(nonzero - 0.3) < 0.03

    def test_sentiment_predicts_next_day_return(self, nasdaq_mini):
        cfg = NewsConfig(event_rate=1.0, informativeness=0.7, seed=3)
        s = generate_sentiment(nasdaq_mini.return_ratios, cfg)
        r = nasdaq_mini.return_ratios
        corr = np.corrcoef(s[:, :-1].ravel(), r[:, 1:].ravel())[0, 1]
        assert corr > 0.4

    def test_zero_informativeness_uncorrelated(self, nasdaq_mini):
        cfg = NewsConfig(event_rate=1.0, informativeness=0.0, seed=4)
        s = generate_sentiment(nasdaq_mini.return_ratios, cfg)
        r = nasdaq_mini.return_ratios
        corr = np.corrcoef(s[:, :-1].ravel(), r[:, 1:].ravel())[0, 1]
        assert abs(corr) < 0.05

    def test_last_day_is_silent(self, nasdaq_mini):
        s = generate_sentiment(nasdaq_mini.return_ratios, NewsConfig(seed=5))
        assert np.all(s[:, -1] == 0.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            NewsConfig(event_rate=0.0)
        with pytest.raises(ValueError):
            NewsConfig(informativeness=1.5)


class TestNewsAugmentedDataset:
    def test_adds_feature_channel(self, nasdaq_mini):
        news = NewsAugmentedDataset(nasdaq_mini, NewsConfig(seed=0))
        feats = news.features(60, window=10)
        assert feats.shape == (10, 48, 5)
        base = nasdaq_mini.features(60, window=10)
        assert np.allclose(feats[:, :, :4], base)

    def test_delegates_everything_else(self, nasdaq_mini):
        news = NewsAugmentedDataset(nasdaq_mini)
        assert news.num_stocks == nasdaq_mini.num_stocks
        assert news.split(10) == nasdaq_mini.split(10)
        assert np.allclose(news.label(60), nasdaq_mini.label(60))
        assert news.market.endswith("+news")

    def test_trains_with_rtgcn(self, nasdaq_mini):
        news = NewsAugmentedDataset(nasdaq_mini, NewsConfig(seed=0))
        model = RTGCN(news.relations, num_features=5, strategy="uniform",
                      relational_filters=4, rng=np.random.default_rng(0))
        config = TrainConfig(window=8, epochs=1, max_train_days=10,
                             num_features=4)  # +1 added by the wrapper
        result = Trainer(model, news, config).run()
        assert np.isfinite(result.predictions).all()

    def test_informative_news_improves_fit(self, nasdaq_mini):
        """With highly informative news the model should use the channel:
        training loss with news should end below training loss without."""
        cfg = TrainConfig(window=8, epochs=5, max_train_days=80, seed=0)
        base_model = RTGCN(nasdaq_mini.relations, num_features=4,
                           strategy="uniform", relational_filters=8,
                           dropout=0.0, rng=np.random.default_rng(0))
        base_losses = Trainer(base_model, nasdaq_mini, cfg).fit()

        news = NewsAugmentedDataset(nasdaq_mini,
                                    NewsConfig(event_rate=1.0,
                                               informativeness=0.9, seed=0))
        news_model = RTGCN(news.relations, num_features=5,
                           strategy="uniform", relational_filters=8,
                           dropout=0.0, rng=np.random.default_rng(0))
        news_losses = Trainer(news_model, news, cfg).fit()
        assert news_losses[-1] < base_losses[-1]
