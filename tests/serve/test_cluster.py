"""ServingCluster: forked workers, shared weights, admission, crash retry.

These tests fork real worker processes and speak real HTTP, so they are
the slowest in the serve suite; they share the session-scoped checkpoint
fixture and keep request counts small.
"""

import json
import multiprocessing
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import ServeConfig, build
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="cluster mode needs fork + shared_memory")


@pytest.fixture(scope="module")
def cluster(serving_ckpt_dir):
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, mode="cluster", cluster_workers=2,
                               slo_p99_ms=1000.0, crash_retries=1,
                               watch_interval_s=30.0))
    handle.start()
    yield handle
    handle.close()


def _get(handle, path):
    host, port = handle.address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=60) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def _get_error(handle, path):
    host, port = handle.address
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=60)
    return err.value.code, dict(err.value.headers), json.load(err.value)


class TestClusterServing:
    def test_health_reports_both_workers(self, cluster):
        status, _, health = _get(cluster, "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["mode"] == "cluster"
        assert health["alive"] == 2

    def test_scores_match_inprocess_engine_bitwise(self, cluster):
        _, _, body = _get(cluster, "/v1/scores")
        assert body["generation"] == 0
        engine = cluster.service.engine()
        expected = engine.scores(None)
        symbols = engine.dataset.universe.symbols
        got = np.array([body["scores"][s] for s in symbols])
        assert np.array_equal(got, expected)

    def test_top_k_and_rank(self, cluster):
        _, _, topk = _get(cluster, "/v1/top_k?k=3")
        assert [row["rank"] for row in topk["top_k"]] == [1, 2, 3]
        _, _, rank = _get(cluster, "/v1/rank")
        assert rank["ranking"][0]["rank"] == 1
        assert rank["ranking"][0]["symbol"] == topk["top_k"][0]["symbol"]

    def test_unversioned_path_is_not_found(self, cluster):
        status, headers, body = _get_error(cluster, "/scores")
        assert (status, body["error"]["code"]) == (404, "not_found")
        assert "Deprecation" not in headers

    @pytest.mark.parametrize("version", ["nope", "ckpt-e0000-b000000"])
    def test_unserved_version_is_not_found(self, cluster, version):
        # the workers hold only the served version's weights, even when
        # another archive exists in the directory
        status, _, body = _get_error(cluster, f"/v1/top_k?version={version}")
        assert (status, body["error"]["code"]) == (404, "not_found")
        assert "'best'" in body["error"]["message"]
        assert _get(cluster, "/v1/top_k?version=best")[2]["version"] == "best"

    def test_error_envelope_is_uniform(self, cluster):
        host, port = cluster.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://{host}:{port}/v1/top_k?k=zebra", timeout=60)
        body = json.load(err.value)
        assert err.value.code == 400
        assert set(body["error"]) >= {"code", "message", "retry_after"}
        assert body["error"]["code"] == "bad_request"

    def test_unknown_route_is_not_found(self, cluster):
        host, port = cluster.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{host}:{port}/v1/nope",
                                   timeout=60)
        assert err.value.code == 404
        assert json.load(err.value)["error"]["code"] == "not_found"

    def test_stats_exposes_cluster_block_and_slo(self, cluster):
        _, _, stats = _get(cluster, "/v1/stats")
        assert stats["cluster"]["workers"] == 2
        assert stats["cluster"]["max_queue"] == 256
        assert stats["slo"]["target_p99_ms"] == 1000.0

    def test_request_survives_worker_crash(self, cluster):
        victim = cluster.cluster._handles[0]
        victim.process.kill()
        victim.process.join(timeout=10)
        # crash_retries=1: when the dead worker's proxy pulls a request
        # it hits the closed pipe, respawns the worker, and requeues, so
        # every request is still answered.  Health is served by the
        # parent, so keep sending ranking requests until the dead proxy
        # drew one and respawned.
        deadline_alive = False
        for _ in range(50):
            status, _, body = _get(cluster, "/v1/scores")
            assert status == 200 and body["scores"]
            _, _, health = _get(cluster, "/v1/health")
            if health["alive"] == 2:
                deadline_alive = True
                break
        assert deadline_alive, "killed worker was never respawned"
