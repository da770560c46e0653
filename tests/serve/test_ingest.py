"""POST /v1/ingest: delta updates, tick-budget fallback, per-op SLO rows.

Built on the blessed ``build(ServeConfig(...))`` cluster against the
shared trained checkpoint; the streaming scenario indices are scaled
to the served universe the same way ``repro.cli stream`` does.
"""

import json
import shutil
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.ckpt import TrainingCheckpoint, save
from repro.core import RTGCN
from repro.graph import reset_adjacency_cache
from repro.serve import ServeConfig, build


@pytest.fixture(autouse=True)
def fresh_cache():
    yield reset_adjacency_cache()
    reset_adjacency_cache()


def post_json(base, path, payload, timeout=30):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


@pytest.fixture
def served(serving_ckpt_dir):
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0))
    handle.start()
    host, port = handle.address
    try:
        yield handle, f"http://{host}:{port}"
    finally:
        handle.close()


class TestIngestHTTP:
    def test_tick_applies_deltas_and_reranks(self, served):
        handle, base = served
        payload = {"day": 0, "regime": "calm",
                   "deltas": [[0, 1, 0.9], [2, 3, 1.1]],
                   "listings": [], "market_return": 0.001}
        result = post_json(base, "/v1/ingest", payload)
        assert result["op"] == "ingest"
        assert result["applied_edits"] == 2
        assert result["touched_rows"] > 0
        assert result["fallback"] is False
        assert result["day"] == 0
        assert len(result["ranking"]) == 10
        ranks = [entry["rank"] for entry in result["ranking"]]
        assert ranks == list(range(1, 11))
        assert result["graph"]["edits_applied"] == 2

    def test_second_tick_accumulates_state(self, served):
        handle, base = served
        post_json(base, "/v1/ingest", {"day": 0,
                                       "deltas": [[0, 1, 0.9]]})
        result = post_json(base, "/v1/ingest",
                           {"day": 1, "deltas": [[0, 1, 0.0]]})
        assert result["ticks"] == 2
        assert result["graph"]["edits_applied"] == 2
        # stream stats surface through /v1/stats
        with urllib.request.urlopen(base + "/v1/stats",
                                    timeout=30) as response:
            stats = json.load(response)
        versions = stats["stream"]["versions"]
        (state,) = versions.values()
        assert state["ticks"] == 2
        assert state["last_day"] == 1

    def test_empty_body_ticks_without_edits(self, served):
        handle, base = served
        result = post_json(base, "/v1/ingest", {})
        assert result["applied_edits"] == 0
        assert result["fallback"] is False
        assert result["ranking"]

    def test_out_of_range_delta_is_bad_request(self, served):
        handle, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(base, "/v1/ingest",
                      {"day": 0, "deltas": [[0, 10_000, 1.0]]})
        assert err.value.code == 400
        body = json.load(err.value)
        assert body["error"]["code"] == "bad_request"
        assert "universe" in body["error"]["message"]

    def test_invalid_json_body_is_bad_request(self, served):
        handle, base = served
        request = urllib.request.Request(
            base + "/v1/ingest", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        assert json.load(err.value)["error"]["code"] == "bad_request"

    def test_malformed_delta_shape_is_bad_request(self, served):
        handle, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(base, "/v1/ingest", {"deltas": [[1, 2]]})
        assert err.value.code == 400


class TestReRankAfterReload:
    TICKS = ({"day": 0, "deltas": [[0, 1, 0.9], [2, 3, 1.1]]},
             {"day": 1, "deltas": [[0, 1, 0.2]]})

    @staticmethod
    def _ticks(directory, ticks, between=None):
        handle = build(ServeConfig(checkpoint_dir=str(directory), port=0))
        handle.start()
        host, port = handle.address
        base = f"http://{host}:{port}"
        try:
            results = []
            for index, tick in enumerate(ticks):
                if index and between is not None:
                    between(base)
                results.append(post_json(base, "/v1/ingest", tick))
            return results
        finally:
            handle.close()

    def test_reload_reranks_from_the_new_weights(self, serving_ckpt_dir,
                                                 csi_mini, tmp_path):
        # Ingest, promote a new best.npz and reload, ingest again: the
        # second ranking must smooth the *new* engine's scores, exactly
        # as a server started on the new checkpoint ranks the same ticks.
        directory = tmp_path / "ckpts"
        directory.mkdir()
        shutil.copy(serving_ckpt_dir / "best.npz", directory / "best.npz")

        def promote(base):
            fresh = RTGCN(csi_mini.relations, num_features=4,
                          strategy="time", relational_filters=4,
                          rng=np.random.default_rng(99))
            save(TrainingCheckpoint(
                model_state=fresh.state_dict(),
                cursor={"epoch": 0, "batch_index": 0},
                config={"window": 6, "num_features": 4, "seed": 3},
                model_class="RTGCN",
                metadata={"model": "RT-GCN (T)", "market": "csi-mini"}),
                directory / "best.npz")
            post_json(base, "/v1/reload", {})

        old = self._ticks(serving_ckpt_dir, self.TICKS)
        reset_adjacency_cache()
        swapped = self._ticks(directory, self.TICKS, between=promote)
        reset_adjacency_cache()
        fresh = self._ticks(directory, self.TICKS)

        assert swapped[0]["ranking"] == old[0]["ranking"]
        assert swapped[1]["ranking"] == fresh[1]["ranking"]
        assert swapped[1]["ranking"] != old[1]["ranking"]


class TestTickBudget:
    def test_overrun_serves_last_ranking_as_fallback(self, serving_ckpt_dir):
        # A budget far below one forward pass: tick 1 has no previous
        # ranking so it computes fresh (late but not a fallback); tick 2
        # overruns with a ranking in hand and falls back to it.
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0, tick_budget_ms=0.0001))
        handle.start()
        host, port = handle.address
        base = f"http://{host}:{port}"
        try:
            first = post_json(base, "/v1/ingest",
                              {"day": 0, "deltas": [[0, 1, 0.8]]})
            assert first["fallback"] is False
            assert first["overrun"] is True
            assert first["ranking"]
            second = post_json(base, "/v1/ingest",
                               {"day": 1, "deltas": [[0, 1, 1.2]]})
            assert second["fallback"] is True
            assert second["fallbacks"] == 1
            # the stale ranking is byte-identical to tick 1's
            assert second["ranking"] == first["ranking"]
            # the graph delta still landed despite the fallback
            assert second["graph"]["edits_applied"] == 2
        finally:
            handle.close()

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError, match="tick_budget_ms"):
            ServeConfig(checkpoint_dir=str(tmp_path), tick_budget_ms=0)
        with pytest.raises(ValueError, match="stream_alpha"):
            ServeConfig(checkpoint_dir=str(tmp_path), stream_alpha=1.5)


class TestIngestTelemetryAndSLO:
    def test_per_op_slo_rows_include_ingest(self, serving_ckpt_dir,
                                            tmp_path):
        db = tmp_path / "exp.sqlite"
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0, slo_p99_ms=2000.0,
                                   store=str(db)))
        handle.start()
        host, port = handle.address
        base = f"http://{host}:{port}"
        try:
            for day in range(3):
                post_json(base, "/v1/ingest",
                          {"day": day, "deltas": [[0, 1, 0.5 + day]]})
            snapshot = handle.telemetry.snapshot()
            assert snapshot["per_op"]["ingest"]["requests"] == 3
        finally:
            handle.close()
        from repro.store import ExperimentStore
        with ExperimentStore(db) as store:
            rows = store.execute(
                "SELECT op, requests FROM slo WHERE op = 'ingest'")
            assert len(rows) == 1
            assert rows[0]["requests"] == 3
