"""ServeConfig validation + the blessed build() factory (threaded mode)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import SERVE_MODES, ServeConfig, ServeHandle, build


class TestServeConfigValidation:
    def test_defaults_are_threaded(self, tmp_path):
        config = ServeConfig(checkpoint_dir=str(tmp_path))
        assert config.mode == "threaded"
        assert config.mode in SERVE_MODES

    def test_empty_checkpoint_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            ServeConfig(checkpoint_dir="")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            ServeConfig(checkpoint_dir=str(tmp_path), mode="warp")

    def test_zero_cluster_workers_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cluster_workers"):
            ServeConfig(checkpoint_dir=str(tmp_path), cluster_workers=0)

    def test_zero_max_queue_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_queue"):
            ServeConfig(checkpoint_dir=str(tmp_path), max_queue=0)

    def test_negative_crash_retries_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="crash_retries"):
            ServeConfig(checkpoint_dir=str(tmp_path), crash_retries=-1)

    def test_memory_budget_bytes(self, tmp_path):
        config = ServeConfig(checkpoint_dir=str(tmp_path),
                             memory_budget_mb=2)
        assert config.memory_budget_bytes == 2 * 1024 * 1024
        assert ServeConfig(
            checkpoint_dir=str(tmp_path)).memory_budget_bytes is None

    def test_to_dict_from_dict_round_trip(self, tmp_path):
        config = ServeConfig(checkpoint_dir=str(tmp_path), mode="cluster",
                             cluster_workers=3, slo_p99_ms=50.0)
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            ServeConfig.from_dict({"checkpoint_dir": str(tmp_path),
                                   "turbo": True})


class TestBuildThreaded:
    def test_build_returns_handle_with_server(self, serving_ckpt_dir):
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0))
        try:
            assert isinstance(handle, ServeHandle)
            assert handle.server is not None
            assert handle.cluster is None
            assert handle.config.mode == "threaded"
        finally:
            handle.close()

    def test_close_is_idempotent(self, serving_ckpt_dir):
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0))
        handle.close()
        handle.close()

    def test_slo_threaded_round_trip_over_http(self, serving_ckpt_dir,
                                               tmp_path):
        db = tmp_path / "exp.sqlite"
        with build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, slo_p99_ms=500.0,
                               store=str(db))) as handle:
            handle.start()
            host, port = handle.address
            base = f"http://{host}:{port}"
            with urllib.request.urlopen(base + "/v1/scores",
                                        timeout=30) as resp:
                scores = json.load(resp)
            assert scores["scores"]
            # paths outside /v1/ are not routes
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/scores", timeout=30)
            assert err.value.code == 404
            assert json.load(err.value)["error"]["code"] == "not_found"
            # uniform error envelope
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/v1/top_k?k=zebra",
                                       timeout=30)
            body = json.load(err.value)
            assert err.value.code == 400
            assert body["error"]["code"] == "bad_request"
            assert body["error"]["retry_after"] is None
            snapshot = handle.telemetry.snapshot()
            assert snapshot["slo"]["target_p99_ms"] == 500.0
        # store got one aggregate SLO row (op NULL) plus per-endpoint rows
        from repro.store import ExperimentStore
        with ExperimentStore(db) as store:
            rows = store.execute(
                "SELECT source, op, target_p99_ms FROM slo")
            assert all(r["source"] == "serve-threaded" for r in rows)
            assert all(r["target_p99_ms"] == 500.0 for r in rows)
            aggregate = [r for r in rows if r["op"] is None]
            assert len(aggregate) == 1
            per_op = {r["op"] for r in rows if r["op"] is not None}
            assert "scores" in per_op        # canonical endpoint labels
            assert "predict_scores" not in per_op
