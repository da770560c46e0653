"""Ranking response bodies over the engine memo, and RankingService."""

import pytest

from repro.serve.service import RankingService, ranking_response


@pytest.fixture()
def service(serving_ckpt_dir):
    with RankingService(serving_ckpt_dir) as svc:
        yield svc


def respond(service, op, day=None, k=None):
    engine = service.engine()
    return ranking_response(op, engine, engine.resolve_day(day), k=k)


class TestRankingOps:
    def test_predict_scores_covers_universe(self, service):
        out = respond(service, "scores")
        symbols = service.engine().dataset.universe.symbols
        assert set(out["scores"]) == set(symbols)
        assert out["model"] == "RT-GCN (T)"
        assert out["stale"] is False

    def test_top_k_sorted_best_first(self, service):
        out = respond(service, "top_k", k=5)
        scores = [row["score"] for row in out["top_k"]]
        assert scores == sorted(scores, reverse=True)
        assert [row["rank"] for row in out["top_k"]] == [1, 2, 3, 4, 5]

    def test_top_k_clamped_to_universe(self, service):
        out = respond(service, "top_k", k=10_000)
        assert out["k"] == service.engine().dataset.num_stocks

    def test_top_k_rejects_nonpositive(self, service):
        with pytest.raises(ValueError, match="k must be"):
            respond(service, "top_k", k=0)

    def test_rank_universe_is_permutation(self, service):
        out = respond(service, "rank")
        n = service.engine().dataset.num_stocks
        assert sorted(row["rank"] for row in out["ranking"]) == \
            list(range(1, n + 1))

    def test_rank_delta_consistent(self, service):
        out = respond(service, "delta", day=100)
        assert out["day"] == 100 and out["prior_day"] == 99
        for row in out["deltas"]:
            assert row["delta"] == row["prior_rank"] - row["rank"]

    def test_rank_delta_needs_prior_day(self, service):
        window = service.engine().servable.window
        forwards = service.engine().forwards
        with pytest.raises(ValueError, match="prior"):
            respond(service, "delta", day=window - 1)
        assert service.engine().forwards == forwards   # refused first

    def test_matches_direct_engine_scores(self, service):
        # The memoised body holds exactly what a fresh forward computes.
        out = respond(service, "scores", day=150)
        direct = service.engine().scores(150)
        symbols = service.engine().dataset.universe.symbols
        assert out["scores"] == {s: float(v)
                                 for s, v in zip(symbols, direct)}


class TestLifecycle:
    def test_closed_service_rejects_requests(self, serving_ckpt_dir):
        service = RankingService(serving_ckpt_dir)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest({})


class TestStats:
    def test_stats_combines_all_layers(self, service):
        service.ingest({"deltas": [[0, 1, 0.5]]})
        stats = service.stats()
        assert stats["requests"] == 1
        assert stats["per_op"]["ingest"]["requests"] == 1
        assert stats["registry"]["loaded"] == ["best"]
        (state,) = stats["stream"]["versions"].values()
        assert state["ticks"] == 1 and state["applied_edits"] == 1
        assert stats["latency_seconds"]["p95"] >= \
            stats["latency_seconds"]["p50"] >= 0
