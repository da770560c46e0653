"""The HTTP protocol pieces of the serving API (stdlib only).

The asyncio cluster front-end (:mod:`repro.serve.cluster`) answers the
**versioned** API surface:

=======================  =================================================
``GET /v1/health``        liveness, workers alive, served version
``GET /v1/models``        available / loaded versions with metadata
``GET /v1/scores``        raw per-symbol scores
``GET /v1/top_k``         the k best-ranked symbols (``?k=10``)
``GET /v1/rank``          the full ranked universe
``GET /v1/delta``         day-over-day rank movement
``GET /v1/stats``         serving telemetry snapshot
``POST /v1/reload``       re-read the checkpoint dir, publish new weights
``POST /v1/ingest``       apply a streaming day's event batch, re-rank
=======================  =================================================

Ranking endpoints accept ``?day=<int>`` (default: the latest servable
day) and ``?version=<ckpt>``, which must name the served version.
Paths outside ``/v1/`` are ``404 not_found``; methods other than GET and
POST are ``405 method_not_allowed`` with ``Allow: GET, POST``, and the
connection is closed after the answer.

Errors come back as a uniform envelope —
``{"error": {"code", "message", "retry_after"}}`` — with a meaningful
status code, so a misaddressed query never manifests as an opaque 500.
``retry_after`` is non-null exactly when retrying helps (load shed,
timeout) and mirrors the ``Retry-After`` response header.

This module holds the transport-agnostic pieces: route resolution
(:func:`resolve_route`), exception→status mapping
(:func:`classify_exception`), envelope rendering (:func:`error_payload`,
:func:`method_not_allowed`), request validation (:func:`query_int`,
:func:`content_length`, :func:`parse_body`), the front-end's
``models``/``ingest`` ops (:func:`execute`) and body encoding
(:func:`json_body`, which the workers call so bodies cross the pipe
already encoded).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from .registry import RegistryError
from .service import RankingService

#: canonical API ops, keyed by their ``/v1/`` path segment.
API_OPS = ("health", "models", "scores", "top_k", "rank", "delta",
           "stats", "reload", "ingest")

#: the only spelling of an integer query parameter (ASCII digits)
_INTEGER = re.compile(r"-?[0-9]+")

#: the HTTP methods the API answers; any other is ``405``
ALLOWED_METHODS = ("GET", "POST")


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


def method_not_allowed(method: str
                       ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    """``(status, extra_headers, payload)`` for a method the API refuses."""
    status, headers, payload = exception_response(ApiError(
        405, "method_not_allowed",
        f"method {method!r} is not allowed; use GET or POST"))
    headers["Allow"] = ", ".join(ALLOWED_METHODS)
    return status, headers, payload


def parse_query(query_string: str) -> Dict[str, str]:
    """The query's parameters, the last value of each name winning.

    Blank (``day=``) and bare (``day``) parameters are kept as ``""``,
    so :func:`query_int` refuses them instead of serving the default.
    """
    return {key: values[-1] for key, values in
            parse_qs(query_string, keep_blank_values=True).items()}


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

    ``raw`` is the header value with surrounding whitespace already
    stripped.  Anything but ASCII digits (an empty value included) is
    ``400 bad_request``: the server cannot tell where the body ends, so
    it answers and closes.
    """
    if raw is None:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise ApiError(400, "bad_request",
                       f"Content-Length must be a non-negative integer, "
                       f"got {raw!r}")
    return int(raw)


def parse_body(body: Optional[bytes]) -> Dict[str, Any]:
    """Decode a JSON request body; empty/missing bodies become ``{}``."""
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers past
        # int()'s digit limit; RecursionError, nesting too deep to parse
        raise ApiError(400, "bad_request",
                       f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad_request",
                       "request body must be a JSON object")
    return payload


def execute(service: RankingService, op: str, query: Dict[str, str],
            body: Optional[bytes] = None) -> Dict[str, Any]:
    """Run ``models`` or ``ingest`` against the parent-side service.

    The cluster front-end answers every other op itself or in its
    workers.  A malformed ``?day=`` is ``400`` here too, although
    neither op reads it.
    """
    query_int(query, "day")
    if op == "models":
        registry = service.registry
        return {"directory": str(registry.directory),
                "loaded": registry.loaded_versions(),
                "models": [registry.describe(v)
                           for v in registry.discover()]}
    if op == "ingest":
        return service.ingest(parse_body(body),
                              version=query.get("version"))
    raise ApiError(404, "not_found", f"no route for op {op!r}")


def json_body(payload: Dict[str, Any]) -> bytes:
    """A response body on the wire: sorted-key JSON plus a newline."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
