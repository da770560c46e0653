"""HTTP endpoint: routing, JSON shapes, error statuses, request heads."""

import json
import multiprocessing
import socket
import urllib.error
import urllib.request

import pytest

from repro.serve import ServeConfig, build
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="serving needs fork + shared_memory")


@pytest.fixture(scope="module")
def server(serving_ckpt_dir):
    with build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir), port=0,
                           cluster_workers=1,
                           watch_interval_s=30.0)) as handle:
        yield handle.start()


def get(server, path):
    host, port = server.address
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
        assert payload["cluster"]["workers"] == 1


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


def exchange(server, head: bytes):
    """Send raw bytes, read until the server closes; the raw response."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(head)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return response
            response += chunk


class TestBadRequestHeads:
    """A head the server cannot parse gets the JSON envelope, then EOF."""

    @pytest.mark.parametrize("head, status, code", [
        (b"GARBAGE\r\n\r\n", 400, "bad_request"),
        (b"\r\nGET\r\n\r\n", 400, "bad_request"),
        (b"GET /v1/health?" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
         414, "uri_too_long"),
        (b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"y" * 70_000
         + b"\r\n\r\n", 431, "header_too_large"),
    ], ids=["garbage", "method-only", "long-request-line", "long-header"])
    def test_answered_in_envelope_then_closed(self, server, head,
                                              status, code, caplog):
        response = exchange(server, head)
        head_bytes, _, body = response.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        headers = {name.lower(): value for name, _, value in
                   (line.partition(": ") for line in lines[1:])}
        assert lines[0].startswith(f"HTTP/1.1 {status} "), response[:200]
        assert lines[0] != f"HTTP/1.1 {status} OK"     # a real reason
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert json.loads(body)["error"]["code"] == code
        # no "Unhandled exception in client_connected_cb" traceback
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_server_keeps_answering_afterwards(self, server):
        exchange(server, b"GARBAGE\r\n\r\n")
        status, payload = get(server, "/v1/health")
        assert status == 200 and payload["status"] == "ok"
