"""Property tests of the HTTP boundary: query integers, bodies, heads.

The pure validators are checked against independent oracles; a live
1-worker cluster then takes random request heads and must answer each
with one well-formed response (or close cleanly) and stay healthy.
"""

import json
import multiprocessing
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import ServeConfig, build
from repro.serve.httpd import ApiError, content_length, parse_body, query_int
from repro.serve.shm import shm_available

DIGITS = "0123456789"

#: text that looks like an integer more often than st.text() alone does
INTEGERISH = st.one_of(
    st.text(),
    st.text(alphabet=DIGITS + "-+_ .e\t١１", max_size=8),
    st.from_regex(r"-?[0-9]+", fullmatch=True))


def _is_wire_integer(raw: str) -> bool:
    body = raw[1:] if raw.startswith("-") else raw
    return bool(body) and all(c in DIGITS for c in body)


@given(INTEGERISH)
@example("1_0")
@example("١٠")
@example(" 7")
@example("-")
def test_query_int_accepts_exactly_ascii_integers(raw):
    if _is_wire_integer(raw):
        assert query_int({"k": raw}, "k") == int(raw)
    else:
        with pytest.raises(ValueError, match="must be an integer"):
            query_int({"k": raw}, "k")


def test_query_int_absent_is_none():
    assert query_int({}, "k") is None


@given(INTEGERISH)
@example("")
@example("-1")
@example("5 ")
def test_content_length_accepts_exactly_ascii_digits(raw):
    if raw and all(c in DIGITS for c in raw):
        assert content_length(raw) == int(raw)
    else:
        with pytest.raises(ApiError) as err:
            content_length(raw)
        assert (err.value.status, err.value.code) == (400, "bad_request")


def test_content_length_absent_is_zero():
    assert content_length(None) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@given(st.one_of(st.binary(),
                 JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8"))))
@example(b"[" * 100_000)
@example(b"1" * 5_000)
@example(b"\xff")
def test_parse_body_returns_a_dict_or_raises_400(body):
    try:
        payload = parse_body(body)
    except ApiError as err:
        assert (err.status, err.code) == (400, "bad_request")
    else:
        assert isinstance(payload, dict)


# ----------------------------------------------------------------------
# live: random request heads against a 1-worker cluster
# ----------------------------------------------------------------------
needs_cluster = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="serving needs fork + shared_memory")

#: head characters: printable ASCII and latin-1, never CR or LF
HEAD_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=255),
    max_size=40)
TOKENS = st.sampled_from(["GET", "POST", "PUT", "OPTIONS", "FROB", ""])
TARGETS = st.one_of(
    st.builds("/v1/{}?{}".format,
              st.sampled_from(["health", "models", "scores", "top_k",
                               "rank", "delta", "stats", "ingest",
                               "nope"]),
              HEAD_TEXT.map(lambda t: t.replace(" ", ""))),
    HEAD_TEXT)
#: header lines; an empty one would end the head early
HEADERS = st.lists(st.one_of(
    st.builds("{}: {}".format, st.sampled_from(
        ["Content-Length", "Connection", "Host", "X-Junk"]), HEAD_TEXT),
    HEAD_TEXT.filter(bool)), max_size=4)


@st.composite
def request_heads(draw) -> bytes:
    method = draw(st.one_of(TOKENS, HEAD_TEXT))
    line = " ".join(part for part in (method, draw(TARGETS),
                                      draw(st.sampled_from(
                                          ["HTTP/1.1", "HTTP/1.0", ""])))
                    if part)
    lines = [line, *draw(HEADERS)]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@pytest.fixture(scope="module")
def cluster(serving_ckpt_dir):
    with build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir), port=0,
                           cluster_workers=1,
                           watch_interval_s=30.0)) as handle:
        yield handle.start()


def _exchange(address, head: bytes) -> bytes:
    """Send a head, half-close, and read until the server closes."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return response
            response += chunk


def _check_response(response: bytes) -> None:
    """Empty (a clean close) or exactly one well-formed JSON response."""
    if not response:
        return
    head, sep, body = response.partition(b"\r\n\r\n")
    assert sep, response[:200]
    lines = head.decode("latin-1").split("\r\n")
    version, status, reason = lines[0].split(" ", 2)
    assert version == "HTTP/1.1" and status.isdigit() and reason, lines[0]
    assert int(status) != 500, response[:400]
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(": ")
        assert colon and name.strip() == name, line
        headers[name.lower()] = value
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(body), response[:400]
    payload = json.loads(body)
    assert isinstance(payload, dict)
    if int(status) >= 400:
        assert set(payload["error"]) == {"code", "message", "retry_after"}


@needs_cluster
@settings(max_examples=50, deadline=None)
@given(head=request_heads())
def test_random_request_heads_get_one_response(cluster, head):
    _check_response(_exchange(cluster.address, head))


@needs_cluster
def test_cluster_healthy_after_fuzzing(cluster):
    response = _exchange(cluster.address,
                         b"GET /v1/health HTTP/1.1\r\n\r\n")
    _check_response(response)
    assert response.startswith(b"HTTP/1.1 200 ")
    assert json.loads(response.partition(b"\r\n\r\n")[2])["status"] == "ok"
