"""Asyncio query client for the /v1/ serving API.

``repro.cli query`` historically fanned multi-endpoint polls out over a
stdlib thread pool of blocking ``urlopen`` calls.  This module replaces
that with a true asyncio client — one event loop, one coroutine per
endpoint, a semaphore for the concurrency cap — sharing its vocabulary
with the cluster front-end instead of inventing a parallel one:

- timeouts surface as the **same error envelope** the server itself
  would send for a timed-out request (:func:`~repro.serve.httpd.
  error_payload` with the ``timeout`` code from
  :func:`~repro.serve.httpd.classify_exception`), so a dashboard
  consuming ``repro.cli query`` output handles a slow server and an
  unreachable one with the same ``payload["error"]["code"]`` switch;
- HTTP responses are parsed the way the front-end writes them
  (``Content-Length`` or connection close; the body is the JSON
  payload, error or not).

Only connection *establishment* failures raise
(:class:`ClientConnectError`) — the server not running is an operator
error, not a payload.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional
from urllib.parse import urlencode

from .httpd import error_payload
from .service import ServiceTimeoutError

__all__ = ["ClientConnectError", "QueryClient", "fetch_endpoints"]


class ClientConnectError(Exception):
    """Could not establish a connection to the serving endpoint."""


class QueryClient:
    """Concurrent GETs against one server, bounded by a semaphore.

    Every request is a fresh ``Connection: close`` HTTP/1.1 exchange —
    the query CLI is a poll, not a session, and both serving transports
    (threaded stdlib server and asyncio cluster front-end) treat
    connections as disposable.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0,
                 concurrency: int = 8):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.concurrency = max(1, int(concurrency))

    # ------------------------------------------------------------------
    async def fetch(self, path: str,
                    params: Optional[Mapping[str, Any]] = None
                    ) -> Dict[str, Any]:
        """GET ``path`` and return the parsed JSON payload.

        A request that times out after connecting returns the uniform
        ``timeout`` error envelope (exactly what the server's own
        admission control would have sent); a refused/failed connection
        raises :class:`ClientConnectError`.
        """
        if params:
            path = f"{path}?{urlencode(dict(params))}"
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ClientConnectError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from exc
        try:
            request = (f"GET {path} HTTP/1.1\r\n"
                       f"Host: {self.host}:{self.port}\r\n"
                       f"Accept: application/json\r\n"
                       f"Connection: close\r\n\r\n")
            writer.write(request.encode("ascii"))
            await writer.drain()
            try:
                body = await asyncio.wait_for(_read_response(reader),
                                              timeout=self.timeout)
            except asyncio.TimeoutError:
                # The same envelope the server sends for its own
                # timeouts — one switch handles both sides.
                exc = ServiceTimeoutError(
                    f"no response from {self.host}:{self.port}{path} "
                    f"within {self.timeout:g}s")
                return error_payload("timeout", str(exc), retry_after=1.0)
            try:
                return json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return error_payload(
                    "bad_response",
                    f"non-JSON response from "
                    f"{self.host}:{self.port}{path}: {exc}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def fetch_many(self, paths: Mapping[str, str],
                         params: Optional[Mapping[str, Any]] = None
                         ) -> Dict[str, Dict[str, Any]]:
        """Fetch every ``{key: path}`` concurrently; payloads by key."""
        gate = asyncio.Semaphore(self.concurrency)

        async def bounded(path: str) -> Dict[str, Any]:
            async with gate:
                return await self.fetch(path, params)

        results = await asyncio.gather(
            *(bounded(path) for path in paths.values()))
        return dict(zip(paths.keys(), results))


async def _read_response(reader: asyncio.StreamReader) -> bytes:
    """Body of one HTTP response (Content-Length or read-to-close)."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection before "
                              "sending a response")
    length: Optional[int] = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                pass
    if length is not None:
        return await reader.readexactly(length)
    return await reader.read()


def fetch_endpoints(host: str, port: int, paths: Mapping[str, str],
                    params: Optional[Mapping[str, Any]] = None,
                    timeout: float = 5.0,
                    concurrency: int = 8) -> Dict[str, Dict[str, Any]]:
    """Synchronous entry point: run one event loop over ``paths``.

    This is what ``repro.cli query`` calls; it owns no loop of its own,
    so it composes with nothing else running (``asyncio.run`` per
    invocation).
    """
    client = QueryClient(host, port, timeout=timeout,
                         concurrency=concurrency)
    return asyncio.run(client.fetch_many(paths, params))
