"""Stdlib JSON/HTTP front-end for the :class:`RankingService`.

One :class:`~http.server.ThreadingHTTPServer` (no third-party web
framework — the whole repo is stdlib+NumPy) exposing the **versioned**
API surface:

=======================  =================================================
``GET /v1/health``        liveness + loaded versions
``GET /v1/models``        available / loaded versions with metadata
``GET /v1/scores``        raw per-symbol scores
``GET /v1/top_k``         the k best-ranked symbols (``?k=10``)
``GET /v1/rank``          the full ranked universe
``GET /v1/delta``         day-over-day rank movement
``GET /v1/stats``         serving telemetry snapshot
``POST /v1/reload``       re-discover checkpoints, drop cached engines
``POST /v1/ingest``       apply a streaming day's event batch, re-rank
=======================  =================================================

Ranking endpoints accept ``?version=<ckpt>&day=<int>`` (defaults: the
registry's best version, the latest servable day).  Paths outside
``/v1/`` are ``404 not_found``.

Errors come back as a uniform envelope —
``{"error": {"code", "message", "retry_after"}}`` — with a meaningful
status code, so a misaddressed query never manifests as an opaque 500.
``retry_after`` is non-null exactly when retrying helps (load shed,
timeout) and mirrors the ``Retry-After`` response header.

This module also hosts the transport-agnostic pieces the asyncio
cluster front-end (:mod:`repro.serve.cluster`) reuses: route resolution
(:func:`resolve_route`), exception→status mapping
(:func:`classify_exception`), and envelope rendering
(:func:`error_payload`).
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .registry import RegistryError
from .service import RankingService, ServiceTimeoutError

#: canonical API ops, keyed by their ``/v1/`` path segment.
API_OPS = ("health", "models", "scores", "top_k", "rank", "delta",
           "stats", "reload", "ingest")

#: the only spelling of an integer query parameter (ASCII digits)
_INTEGER = re.compile(r"-?[0-9]+")

#: ops that mutate server state and therefore want POST (GET still
#: answers for operator convenience — reload is idempotent).
MUTATING_OPS = ("reload", "ingest")


class ApiError(Exception):
    """An error with a wire-level identity: status, code, retry hint."""

    def __init__(self, status: int, code: str, message: str,
                 retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.retry_after = retry_after


def resolve_route(path: str) -> Optional[str]:
    """The API op a request path names, or ``None`` for unknown paths."""
    if path.startswith("/v1/"):
        op = path[len("/v1/"):].strip("/")
        if op in API_OPS:
            return op
    return None


def error_payload(code: str, message: str,
                  retry_after: Optional[float] = None) -> Dict[str, Any]:
    """The uniform JSON error envelope; clients switch on ``code``."""
    return {"error": {"code": code, "message": message,
                      "retry_after": retry_after}}


def classify_exception(exc: BaseException
                       ) -> Tuple[int, str, Optional[float]]:
    """``(status, code, retry_after)`` for an exception from the service."""
    if isinstance(exc, ApiError):
        return exc.status, exc.code, exc.retry_after
    if isinstance(exc, ServiceTimeoutError):
        return 503, "timeout", 1.0
    if isinstance(exc, (RegistryError, FileNotFoundError)):
        return 404, "not_found", None
    if isinstance(exc, ValueError):
        return 400, "bad_request", None
    return 500, "internal", None


def exception_response(exc: BaseException
                       ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """``(status, extra_headers, payload)`` for an exception."""
    status, code, retry_after = classify_exception(exc)
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{retry_after:g}"
    return status, headers, error_payload(code, str(exc), retry_after)


def parse_query(query_string: str) -> Dict[str, str]:
    return {key: values[-1]
            for key, values in parse_qs(query_string).items()}


def query_int(query: Dict[str, str], name: str) -> Optional[int]:
    """An integer query parameter: ``-?[0-9]+`` in ASCII, else ``400``.

    ``int()`` alone also accepts ``1_0``, ``+5``, padding whitespace and
    non-ASCII digits such as ``١٠``; none of those is an integer on the
    wire.
    """
    raw = query.get(name)
    if raw is None:
        return None
    if _INTEGER.fullmatch(raw) is None:
        raise ValueError(f"query parameter {name!r} must be an integer, "
                         f"got {raw!r}")
    return int(raw)


def content_length(raw: Optional[str]) -> int:
    """The body length a ``Content-Length`` header names (absent = 0).

    Anything but a non-negative integer is ``400 bad_request``: the
    server cannot tell where the body ends, so it answers and closes.
    """
    text = (raw or "0").strip()
    if not (text.isascii() and text.isdigit()):
        raise ApiError(400, "bad_request",
                       f"Content-Length must be a non-negative integer, "
                       f"got {raw!r}")
    return int(text)


def parse_body(body: Optional[bytes]) -> Dict[str, Any]:
    """Decode a JSON request body; empty/missing bodies become ``{}``."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(400, "bad_request",
                       f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request",
                       "request body must be a JSON object")
    return payload


def execute(service: RankingService, op: str, query: Dict[str, str],
            body: Optional[bytes] = None) -> Dict[str, Any]:
    """Run one canonical op against a :class:`RankingService`.

    Shared by the threaded server below; the cluster front-end executes
    ranking ops in its worker processes instead but delegates ``models``
    and ``ingest`` here via its parent-side service.
    """
    version = query.get("version")
    day = query_int(query, "day")
    if op == "health":
        return {"status": "ok",
                "loaded": service.registry.loaded_versions()}
    if op == "models":
        registry = service.registry
        return {"directory": str(registry.directory),
                "loaded": registry.loaded_versions(),
                "models": [registry.describe(v)
                           for v in registry.discover()]}
    if op == "scores":
        return service.predict_scores(version=version, day=day)
    if op == "top_k":
        k = query_int(query, "k")
        return service.top_k(k=10 if k is None else k,
                             version=version, day=day)
    if op == "rank":
        return service.rank_universe(version=version, day=day)
    if op == "delta":
        return service.rank_delta(version=version, day=day)
    if op == "stats":
        return service.stats()
    if op == "reload":
        return service.reload(version=version)
    if op == "ingest":
        return service.ingest(parse_body(body), version=version)
    raise ApiError(404, "not_found", f"no route for op {op!r}")


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class RankingHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`RankingService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: RankingService):
        super().__init__(address, _RankingHandler)
        self.service = service

    def shutdown(self) -> None:          # also drain the batcher
        super().shutdown()
        self.service.close()


class _RankingHandler(BaseHTTPRequestHandler):
    server: RankingHTTPServer
    protocol_version = "HTTP/1.1"

    # quiet by default; serving telemetry supersedes stderr access logs
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._respond()

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        try:
            length = content_length(self.headers.get("Content-Length"))
        except ApiError as exc:
            status, extra_headers, payload = exception_response(exc)
            # The body was not read, so the connection cannot be reused.
            self._send(status, {**extra_headers, "Connection": "close"},
                       payload)
            return
        # Reading the full body also keeps keep-alive framing intact.
        body = self.rfile.read(length) if length else b""
        self._respond(body)

    def _respond(self, body: Optional[bytes] = None) -> None:
        parsed = urlparse(self.path)
        query = parse_query(parsed.query)
        op = resolve_route(parsed.path)
        extra_headers: Dict[str, str] = {}
        try:
            if op is None:
                raise ApiError(404, "not_found",
                               f"no route for {parsed.path!r}")
            status, payload = 200, execute(self.server.service, op, query,
                                           body=body)
        except Exception as exc:  # noqa: BLE001 — JSON instead of stack dump
            status, extra_headers, payload = exception_response(exc)
        self._send(status, extra_headers, payload)

    def _send(self, status: int, extra_headers: Dict[str, str],
              payload: Dict[str, Any]) -> None:
        body = _json_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

