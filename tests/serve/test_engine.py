"""InferenceEngine: tape-free forwards, graph-mode dispatch, day ranges."""

import numpy as np
import pytest

from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry
from repro.tensor import tape_node_count


@pytest.fixture()
def servable(serving_ckpt_dir):
    return ModelRegistry(serving_ckpt_dir).load("best")


class TestScoring:
    def test_scores_shape_and_dtype(self, servable):
        engine = InferenceEngine(servable)
        scores = engine.scores()
        assert scores.shape == (servable.dataset.num_stocks,)
        assert scores.dtype == float
        assert np.all(np.isfinite(scores))

    def test_deterministic_across_calls(self, servable):
        engine = InferenceEngine(servable)
        assert np.array_equal(engine.scores(100), engine.scores(100))

    def test_day_defaults_to_latest(self, servable):
        engine = InferenceEngine(servable)
        latest = servable.dataset.num_days - 1
        assert engine.resolve_day(None) == latest
        assert np.array_equal(engine.scores(), engine.scores(latest))

    def test_negative_day_counts_from_end(self, servable):
        engine = InferenceEngine(servable)
        assert engine.resolve_day(-1) == servable.dataset.num_days - 1

    def test_day_outside_window_rejected(self, servable):
        engine = InferenceEngine(servable)
        with pytest.raises(ValueError, match="servable range"):
            engine.scores(0)          # no full lookback window yet
        with pytest.raises(ValueError, match="servable range"):
            engine.scores(servable.dataset.num_days)


class TestNoAutogradAllocation:
    def test_serving_forward_allocates_no_tape(self, servable):
        """Acceptance criterion: serving forwards build zero tape nodes."""
        engine = InferenceEngine(servable)
        engine.scores()                        # warm any lazy caches
        before = tape_node_count()
        for day in (50, 100, 150, None):
            engine.scores(day)
        assert tape_node_count() == before

    def test_training_forward_does_allocate(self, servable):
        # Sanity check that the counter would catch a regression: the
        # same model, forwarded outside inference mode, builds a tape.
        from repro.tensor import Tensor
        features = servable.dataset.features(100, servable.window,
                                             servable.num_features)
        model = servable.model
        model.train()
        try:
            before = tape_node_count()
            model(Tensor(features))
            assert tape_node_count() > before
        finally:
            model.eval()


class TestGraphModeDispatch:
    def test_sparse_scores_bitwise_equal_dense(self, serving_ckpt_dir):
        """Acceptance criterion: the same checkpoint served in sparse
        mode returns bitwise-identical scores to dense mode."""
        # Two registries so each engine owns its model instance; sharing
        # one would let the second set_graph_mode win for both.
        dense = InferenceEngine(
            ModelRegistry(serving_ckpt_dir).load("best"),
            graph_mode="dense")
        sparse = InferenceEngine(
            ModelRegistry(serving_ckpt_dir).load("best"),
            graph_mode="sparse")
        dense_modes = {getattr(m, "graph_mode", None)
                       for m in dense.model.modules()
                       if hasattr(m, "graph_mode")}
        assert dense_modes == {"dense"}
        for day in (30, 100, None):
            d, s = dense.scores(day), sparse.scores(day)
            assert d.tobytes() == s.tobytes()

    def test_engine_applies_registered_graph_mode(self, servable):
        engine = InferenceEngine(servable, graph_mode="sparse")
        modes = {getattr(m, "graph_mode", None)
                 for m in servable.model.modules()
                 if hasattr(m, "graph_mode")}
        assert modes == {"sparse"}
        assert engine.graph_mode == "sparse"

    def test_stats_count_forwards(self, servable):
        engine = InferenceEngine(servable)
        engine.scores()
        engine.scores(100)
        stats = engine.stats()
        assert stats["forwards"] == 2
        assert stats["forward_seconds"] > 0
        assert stats["version"] == "best"


class TestScoreMemo:
    def test_cached_scores_bitwise_equal_forward(self, servable):
        engine = InferenceEngine(servable)
        for day in (30, 100, None):
            assert (engine.cached_scores(day).tobytes()
                    == engine.scores(day).tobytes())

    def test_repeated_reads_run_one_forward(self, servable):
        engine = InferenceEngine(servable)
        first = engine.cached_scores(100)
        for _ in range(5):
            assert engine.cached_scores(100) is first
        # None and a negative day resolve to the same memoised day
        latest = engine.cached_scores(None)
        assert engine.cached_scores(-1) is latest
        stats = engine.stats()
        assert stats["forwards"] == 2
        assert stats["memo_misses"] == 2

    def test_cached_array_is_read_only(self, servable):
        scores = InferenceEngine(servable).cached_scores(100)
        with pytest.raises(ValueError):
            scores[0] = 0.0

    def test_forget_recomputes(self, servable):
        engine = InferenceEngine(servable)
        first = engine.cached_scores(100)
        engine.forget()
        again = engine.cached_scores(100)
        assert again is not first
        assert again.tobytes() == first.tobytes()
        assert engine.stats()["forwards"] == 2

    def test_scores_stays_an_unconditional_forward(self, servable):
        engine = InferenceEngine(servable)
        engine.cached_scores(100)
        engine.scores(100)
        engine.scores(100)
        assert engine.stats()["forwards"] == 3
