"""HTTP endpoint: routing, JSON shapes, error statuses."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.httpd import RankingHTTPServer
from repro.serve.service import RankingService


@pytest.fixture(scope="module")
def server(serving_ckpt_dir):
    service = RankingService(serving_ckpt_dir, max_wait_ms=2.0)
    httpd = RankingHTTPServer(("127.0.0.1", 0), service)  # ephemeral port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10.0)


def get(server, path):
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_health(self, server):
        status, payload = get(server, "/v1/health")
        assert status == 200
        assert payload["status"] == "ok"

    def test_models_lists_archives(self, server):
        status, payload = get(server, "/v1/models")
        assert status == 200
        versions = [m["version"] for m in payload["models"]]
        assert versions == ["best", "ckpt-e0000-b000000"]

    def test_top_k_shape(self, server):
        status, payload = get(server, "/v1/top_k?k=4")
        assert status == 200
        assert payload["k"] == 4
        assert [r["rank"] for r in payload["top_k"]] == [1, 2, 3, 4]
        assert all(isinstance(r["symbol"], str) for r in payload["top_k"])

    def test_scores_with_version_and_day(self, server):
        status, payload = get(
            server, "/v1/scores?version=best&day=200")
        assert status == 200
        assert payload["version"] == "best" and payload["day"] == 200

    def test_rank_and_delta(self, server):
        status, rank = get(server, "/v1/rank")
        assert status == 200 and rank["ranking"]
        status, delta = get(server, "/v1/delta?day=100")
        assert status == 200 and delta["prior_day"] == 99

    def test_stats(self, server):
        status, payload = get(server, "/v1/stats")
        assert status == 200
        assert "latency_seconds" in payload
        assert "batch_size_histogram" in payload


class TestErrorStatuses:
    def test_unknown_route_404(self, server):
        status, payload = get(server, "/v2/everything")
        assert status == 404 and "error" in payload

    def test_unknown_version_404(self, server):
        status, payload = get(server, "/v1/top_k?version=ghost")
        assert status == 404
        assert "ghost" in payload["error"]["message"]

    def test_bad_day_400(self, server):
        status, payload = get(server, "/v1/scores?day=1")
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "type" not in payload["error"]

    def test_non_integer_param_400(self, server):
        status, payload = get(server, "/v1/top_k?k=lots")
        assert status == 400
        assert "integer" in payload["error"]["message"]
