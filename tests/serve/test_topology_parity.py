"""A 1-worker and a 2-worker cluster answer with the same JSON.

The worker count changes only which process computes a body; the
``generation``/``worker`` fields are the only difference on the wire.
"""

import json
import multiprocessing
import socket
import urllib.error
import urllib.request

import pytest

from repro.graph import adjacency_cache
from repro.serve import ServeConfig, build
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="cluster mode needs fork + shared_memory")


@pytest.fixture(scope="module")
def handles(serving_ckpt_dir):
    handles = [build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                 port=0, cluster_workers=workers,
                                 watch_interval_s=30.0)).start()
               for workers in (1, 2)]
    yield handles
    for handle in handles:
        handle.close()


def _fetch(handle, path):
    host, port = handle.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                    timeout=60) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


@pytest.mark.parametrize("path, status", [
    ("/v1/scores", 200), ("/v1/top_k?k=3", 200), ("/v1/rank", 200),
    ("/v1/delta", 200),
    ("/v1/top_k?k=0", 400),
    ("/v1/scores?day=1", 400),             # before the first servable day
    ("/v1/delta?day=5", 400),              # first servable day (window 6)
])
def test_bodies_match_across_topologies(handles, path, status):
    (one_status, one_body), (two_status, two_body) = (_fetch(h, path)
                                                      for h in handles)
    assert one_status == two_status == status
    if status == 200:
        assert (one_body.pop("generation"), one_body.pop("worker")) \
            == (0, 0)
        assert two_body.pop("generation") == 0
        assert two_body.pop("worker") in (0, 1)
    assert one_body == two_body


#: both clusters, in the order the ``handles`` fixture starts them; the
#: 1-worker one keeps the id these cases have always run under
TOPOLOGIES = pytest.mark.parametrize("topology", [0, 1],
                                     ids=["cluster", "two-workers"])


def _post(handle, path, body: bytes):
    host, port = handle.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


@TOPOLOGIES
@pytest.mark.parametrize("body", [
    b'{"deltas": 5}',
    b'{"deltas": [5]}',
    b'{"deltas": [[0, 1, NaN]]}',
    b'{"deltas": [[0, 1, Infinity]]}',
    b'{"deltas": [[0, 1, 0.5], [1, 2, -Infinity]]}',
    b'{"deltas": [["0", 1, 0.5]]}',
], ids=["scalar", "scalar-entry", "nan", "inf", "valid-then-inf",
        "string-index"])
def test_malformed_ingest_is_bad_request(handles, topology, body):
    # json.loads accepts NaN/Infinity; ingest must still refuse them, and
    # a batch with one bad entry must land none of its edits.
    before = adjacency_cache().stats()["deltas"]
    status, payload = _post(handles[topology], "/v1/ingest", body)
    assert status == 400, payload
    assert payload["error"]["code"] == "bad_request"
    assert adjacency_cache().stats()["deltas"] == before


@TOPOLOGIES
@pytest.mark.parametrize("length", ["abc", "-1"])
def test_bad_content_length_is_bad_request(handles, topology, length):
    host, port = handles[topology].address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"POST /v1/ingest HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode())
        response = b""
        while True:                   # the server answers, then closes
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), response
    assert json.loads(body)["error"]["code"] == "bad_request"


@TOPOLOGIES
@pytest.mark.parametrize("query", [
    "k=1_0", "k=%2B5", "k=+5", "k=%207%20", "k=%D9%A1%D9%A0", "k=5.0",
    "day=1_00", "day=%EF%BC%91%EF%BC%90%EF%BC%90", "day=", "k=", "day",
], ids=["underscore", "plus", "plus-as-space", "padded", "arabic-indic",
        "float", "day-underscore", "day-fullwidth", "day-blank", "k-blank",
        "day-bare"])
def test_non_ascii_integer_query_is_bad_request(handles, topology, query):
    # int() accepts every one of these but the blank ones, which would
    # otherwise fall back to the default; the wire grammar is -?[0-9]+.
    status, payload = _fetch(handles[topology], f"/v1/top_k?{query}")
    assert status == 400, payload
    assert payload["error"]["code"] == "bad_request"


@TOPOLOGIES
def test_negative_integer_query_still_parses(handles, topology):
    status, payload = _fetch(handles[topology], "/v1/top_k?k=3&day=-1")
    assert status == 200, payload
    assert payload["k"] == 3


@TOPOLOGIES
@pytest.mark.parametrize("method, path", [
    ("PUT", "/v1/top_k"), ("DELETE", "/v1/top_k"), ("PATCH", "/v1/reload"),
    ("OPTIONS", "/v1/health"), ("FROB", "/v1/scores"),
])
def test_unsupported_method_is_405(handles, topology, method, path):
    handle = handles[topology]
    engine = handle.service.engine()
    host, port = handle.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                     f"Content-Length: 2\r\n\r\n{{}}".encode())
        response = b""
        while True:                   # the server answers, then closes
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value for name, _, value in
               (line.partition(": ") for line in lines[1:])}
    assert lines[0].startswith("HTTP/1.1 405 "), response
    assert headers["allow"] == "GET, POST"
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]["code"] == "method_not_allowed"
    # nothing ran: a reload would have dropped the cached engine
    assert handle.service.engine() is engine
