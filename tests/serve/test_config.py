"""ServeConfig validation + the blessed build() factory."""

import dataclasses
import json
import multiprocessing
import urllib.error
import urllib.request

import pytest

from repro.serve import SERVE_MODES, ServeConfig, ServeHandle, build
from repro.serve.shm import shm_available

needs_cluster = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="serving needs fork + shared_memory")


class TestServeConfigValidation:
    def test_defaults_are_cluster(self, tmp_path):
        config = ServeConfig(checkpoint_dir=str(tmp_path))
        assert config.mode == "cluster"
        assert SERVE_MODES == ("cluster",)

    def test_threaded_mode_was_removed(self, tmp_path):
        with pytest.raises(ValueError, match="threaded topology was "
                                             "removed"):
            ServeConfig(checkpoint_dir=str(tmp_path), mode="threaded")

    def test_eighteen_fields(self):
        # no micro-batching knobs: max_batch, max_wait_ms,
        # straggler_poll_ms, idle_poll_ms and batch_workers are gone
        names = [f.name for f in dataclasses.fields(ServeConfig)]
        assert len(names) == 18, names
        assert "max_batch" not in names and "batch_workers" not in names

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


@needs_cluster
class TestBuildCluster:
    def test_build_returns_handle_with_cluster(self, serving_ckpt_dir):
        from repro.serve import ServingCluster
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0))
        try:
            assert isinstance(handle, ServeHandle)
            assert isinstance(handle.cluster, ServingCluster)
            assert handle.config.mode == "cluster"
        finally:
            handle.close()

    def test_close_is_idempotent(self, serving_ckpt_dir):
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0))
        handle.close()
        handle.close()

    def test_slo_cluster_round_trip_over_http(self, serving_ckpt_dir,
                                              tmp_path):
        db = tmp_path / "exp.sqlite"
        with build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, slo_p99_ms=500.0, cluster_workers=1,
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
            assert all(r["source"] == "serve-cluster" for r in rows)
            assert all(r["target_p99_ms"] == 500.0 for r in rows)
            aggregate = [r for r in rows if r["op"] is None]
            assert len(aggregate) == 1
            per_op = {r["op"] for r in rows if r["op"] is not None}
            assert "scores" in per_op        # /v1/ op names
