"""Multi-process serving cluster: asyncio front-end + forked workers.

The threaded server (:mod:`repro.serve.httpd`) runs model forwards on
the request threads of one process; past a handful of concurrent
clients the GIL serializes them.  :class:`ServingCluster` splits the
two roles:

- **Front-end** — a single asyncio event loop accepts every connection
  (thousands of idle keep-alive sockets cost one fd each, no threads),
  parses HTTP/1.1, coalesces identical in-flight requests, and applies
  *admission control*: a bounded dispatch queue, with overflow answered
  immediately as ``429`` + ``Retry-After`` instead of queueing without
  bound until every client times out.  Worker replies are read on the
  loop itself (:class:`_WorkerLink`), so a read costs no thread hop.
- **Workers** — ``cluster_workers`` forked inference processes, reusing
  the PDEATHSIG/respawn plumbing of
  :class:`repro.parallel.WorkerHandle`.  Weights live in **one** shared
  memory copy (:mod:`repro.serve.shm`): the front-end publishes them,
  every worker maps its model parameters onto the segment zero-copy.
- **Hot swap** — a watcher polls the checkpoint directory
  (:meth:`ModelRegistry.fingerprint`); when the promoted best changes,
  the front-end publishes a new weight generation and flips the seqlock
  control word.  Workers notice *between* requests: in-flight requests
  finish on the old weights (the reader keeps the previous generation
  mapped), no request is ever dropped, and post-swap scores are
  bitwise-identical to a fresh engine on the new checkpoint.

Construction goes through :func:`repro.serve.build` with
``ServeConfig(mode="cluster")``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import struct
import threading
import time
import warnings
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlparse

import numpy as np

from ..parallel.pool import WorkerHandle, die_with_parent, fork_available
from .httpd import (ALLOWED_METHODS, ApiError, classify_exception,
                    content_length, exception_response, execute, json_body,
                    method_not_allowed, parse_query, query_int,
                    resolve_route)
from .service import ranking_response
from .shm import SharedWeightReader, SharedWeightStore, adopt_views

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}

#: ops the forked workers execute; everything else runs in the parent
WORKER_OPS = ("scores", "top_k", "rank", "delta")


class ClusterError(RuntimeError):
    """The cluster could not start or lost all of its workers."""


# ----------------------------------------------------------------------
# worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _worker_execute(engine, reader: SharedWeightReader, slot: int,
                    op: str, query: Dict[str, str]) -> Dict[str, Any]:
    """One ranking op against the worker's (shared-weight) engine.

    The body comes from the same :func:`ranking_response` the threaded
    service uses, plus ``generation``/``worker``, so clients cannot tell
    which serving topology answered — only the transport differs.
    Scores come from the engine's per-day memo: a day is forwarded once
    per weight generation.
    """
    day = engine.resolve_day(query_int(query, "day"))
    k = query_int(query, "k") if op == "top_k" else None
    body = ranking_response(op, engine, day,
                            lambda d: (engine.cached_scores(d), False), k=k)
    body.update(generation=reader.generation, worker=slot)
    return body


def _sync_weights(reader: SharedWeightReader, engine) -> bool:
    """Move ``engine`` onto the newest published generation; True on swap.

    A swap drops the engine's day memo.  A failed adoption (e.g. an
    architecture-changing checkpoint) is survived: the model keeps its
    weights, and the reader keeps reporting and mapping their
    generation.
    """
    try:
        swapped = reader.refresh(partial(adopt_views, engine.model))
    except Exception:
        # keep serving the previous weights; the parent's swap
        # machinery owns reporting/promotion correctness
        return False
    if swapped:
        engine.forget()
    return swapped


def _cluster_worker_main(slot: int, task_conn, event_conn,
                         servable, base_name: str) -> None:
    """Forked inference worker: shared weights in, encoded bodies out.

    ``servable`` arrives via fork inheritance (model skeleton + dataset,
    copy-on-write); the parameter *storage* is immediately re-pointed at
    the shared-memory segment, so the fork's weight copy is never
    touched and N workers hold one physical set of weights.

    Hot swap: the generation word is checked **between** requests; a
    request already being computed finishes on the weights it started
    with (the reader keeps the previous generation mapped one swap
    back).  A successful adoption drops the engine's day memo; a failed
    one (e.g. an architecture-changing checkpoint) is survived by
    continuing on the old weights (:func:`_sync_weights`).

    An answered op is shipped as its finished response body (bytes from
    :func:`json_body`), so the front-end writes it without decoding or
    re-encoding; an error ships a dict the front-end turns into an
    :class:`ApiError`.
    """
    die_with_parent()
    from .engine import InferenceEngine

    reader = SharedWeightReader(base_name)
    reader.refresh(partial(adopt_views, servable.model))
    engine = InferenceEngine(servable)
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):         # parent went away
            break
        if message is None:                 # graceful shutdown sentinel
            break
        req_id, op, query = message
        try:
            _sync_weights(reader, engine)
            body = _worker_execute(engine, reader, slot, op, query)
            response = (req_id, "ok", json_body(body))
        except BaseException as exc:        # noqa: BLE001 — ship to parent
            status, code, retry_after = classify_exception(exc)
            response = (req_id, "err",
                        {"status": status, "code": code,
                         "retry_after": retry_after, "message": str(exc)})
        try:
            event_conn.send(response)
        except (BrokenPipeError, OSError):  # parent went away mid-reply
            break
    # Re-point the parameters at private copies before unmapping: numpy
    # views still aliasing the segment keep its buffer exported, which
    # makes the mmap close fail (and print) during interpreter teardown.
    for param in servable.model.parameters():
        param.data = np.array(param.data)
    reader.close()


class _WorkerDied(RuntimeError):
    """The pipe roundtrip to a worker failed (crash / kill mid-request)."""


class _WorkerLink:
    """The front-end's end of one worker slot, driven on the event loop.

    Replies are read from a non-blocking pipe transport and cut into
    :class:`multiprocessing.connection.Connection` frames (a big-endian
    4-byte length, or ``-1`` and an 8-byte length past 2 GiB) followed
    by a pickle, so a large or half-written reply waits for more bytes
    instead of blocking the loop.  The transport owns a duplicate of the
    event pipe's descriptor: closing the link and closing the
    :class:`WorkerHandle` (on an executor thread, during respawn) never
    close the same descriptor.
    """

    def __init__(self, handle: WorkerHandle, stream: asyncio.StreamReader,
                 transport: asyncio.ReadTransport):
        self.handle = handle
        self._stream = stream
        self._transport = transport

    @classmethod
    async def open(cls, handle: WorkerHandle) -> "_WorkerLink":
        loop = asyncio.get_running_loop()
        stream = asyncio.StreamReader()
        pipe = os.fdopen(os.dup(handle.event_r.fileno()), "rb", buffering=0)
        transport, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(stream), pipe)
        return cls(handle, stream, transport)

    async def ask(self, req_id: int, op: str, query: Dict[str, str]
                  ) -> Tuple[str, Any]:
        """Send one task and await its ``(kind, body)`` reply."""
        try:
            self.handle.task_w.send((req_id, op, query))
            while True:
                event = await self._recv()
                if event[0] == req_id:
                    return event[1], event[2]
                # stale reply from a request whose waiters gave up
        except (EOFError, OSError) as exc:
            raise _WorkerDied(
                f"worker {self.handle.slot} died mid-request "
                f"(exit code {self.handle.process.exitcode})") from exc

    async def _recv(self) -> Any:
        size, = struct.unpack("!i", await self._stream.readexactly(4))
        if size == -1:
            size, = struct.unpack("!Q", await self._stream.readexactly(8))
        return pickle.loads(await self._stream.readexactly(size))

    def close(self) -> None:
        self._transport.close()


# ----------------------------------------------------------------------
# front-end (parent process)
# ----------------------------------------------------------------------
class ServingCluster:
    """The serving cluster's parent-side controller.

    Lifecycle: :meth:`start` forks the workers, publishes the weights,
    and brings the asyncio front-end up on a background thread (returns
    once the listener is bound — :attr:`address` is then real);
    :meth:`serve_forever` blocks until :meth:`close`.  Built by
    :func:`repro.serve.build`; ``service`` is the parent-side
    :class:`RankingService` used for registry/metadata ops only — the
    ranking path runs in the forked workers.
    """

    def __init__(self, config, service, telemetry):
        if not fork_available():
            raise ClusterError(
                "cluster mode requires the 'fork' start method; use "
                "ServeConfig(mode='threaded') on this platform")
        self.config = config
        self.service = service
        self.telemetry = telemetry
        self.address: Optional[Tuple[str, int]] = None
        self.swaps = 0
        self._ctx = multiprocessing.get_context("fork")
        self._handles: list = []
        self._shm_store: Optional[SharedWeightStore] = None
        self._fingerprint = None
        self._servable = None
        self._req_ids = itertools.count()
        self._started = False
        self._closed = False
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingCluster":
        if self._started:
            return self
        self._started = True
        registry = self.service.registry
        self._servable = registry.load(None)
        self._fingerprint = registry.fingerprint(self._servable.version)
        self._shm_store = SharedWeightStore()
        self._shm_store.publish(self._servable.model.state_dict(),
                                version=self._servable.version)
        self._handles = [
            WorkerHandle(self._ctx, slot, _cluster_worker_main,
                         args=(self._servable, self._shm_store.base_name),
                         name_prefix="repro-serve-cluster")
            for slot in range(self.config.cluster_workers)]
        self._thread = threading.Thread(target=self._run_loop,
                                        name="repro-serve-cluster-loop",
                                        daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            error = self._startup_error
            self.close()
            raise ClusterError(f"cluster front-end failed to start: "
                               f"{error}") from error
        if self.address is None:
            self.close()
            raise ClusterError("cluster front-end did not come up "
                               "within 30s")
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or KeyboardInterrupt upstream)."""
        self.start()
        self._thread.join()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop_async is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:            # loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        for handle in self._handles:
            try:
                handle.task_w.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._handles:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():   # pragma: no cover - stuck
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.close()
        self._handles = []
        if self._shm_store is not None:
            self._shm_store.close(unlink=True)
            self._shm_store = None

    # ------------------------------------------------------------------
    # asyncio core
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:        # pragma: no cover - defensive
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        self._queue: "asyncio.Queue" = asyncio.Queue(
            maxsize=self.config.max_queue)
        self._inflight: Dict[Any, List[asyncio.Future]] = {}
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.config.host,
                self.config.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        proxies = [asyncio.create_task(self._worker_proxy(slot))
                   for slot in range(len(self._handles))]
        watcher = asyncio.create_task(self._watch_checkpoints())
        self._ready.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in (watcher, *proxies):
                task.cancel()
            await asyncio.gather(watcher, *proxies,
                                 return_exceptions=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ApiError as exc:
                    # The body's extent is unknown: answer, then close.
                    status, extra, payload = exception_response(exc)
                    writer.write(self._render(status, extra, payload,
                                              keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (headers.get("connection", "").lower()
                              != "close")
                if method in ALLOWED_METHODS:
                    status, extra, payload = await self._dispatch(
                        target, body)
                else:
                    # as on the threaded server: answer, then close
                    status, extra, payload = method_not_allowed(method)
                    keep_alive = False
                writer.write(self._render(status, extra, payload,
                                          keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
            reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request (head + body); None on clean EOF."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise ConnectionError("malformed request line")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = content_length(headers.get("content-length"))
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _render(status: int, extra: Dict[str, str],
                payload: Union[bytes, Dict[str, Any]],
                keep_alive: bool) -> bytes:
        """One response; ``bytes`` payloads are worker-encoded bodies."""
        body = payload if isinstance(payload, bytes) else json_body(payload)
        reason = _REASONS.get(status, "OK")
        lines = [f"HTTP/1.1 {status} {reason}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        lines += [f"{name}: {value}" for name, value in extra.items()]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body

    # ------------------------------------------------------------------
    # routing / dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, target: str, body: bytes = b""
                        ) -> Tuple[int, Dict[str, str],
                                   Union[bytes, Dict[str, Any]]]:
        parsed = urlparse(target)
        query = parse_query(parsed.query)
        op = resolve_route(parsed.path)
        extra: Dict[str, str] = {}
        try:
            if op is None:
                raise ApiError(404, "not_found",
                               f"no route for {parsed.path!r}")
            if op in WORKER_OPS:
                payload = await self._dispatch_worker(op, query)
            else:
                payload = await self._dispatch_parent(op, query, body)
            status = 200
        except Exception as exc:  # noqa: BLE001 — uniform JSON envelope
            status, extra, payload = exception_response(exc)
        return status, extra, payload

    async def _dispatch_parent(self, op: str, query: Dict[str, str],
                               body: bytes = b"") -> Dict[str, Any]:
        """Registry/metadata/ingest ops answered in the front-end process."""
        if op == "health":
            alive = sum(1 for h in self._handles if h.process.is_alive())
            return {"status": "ok" if alive else "degraded",
                    "mode": "cluster", "workers": len(self._handles),
                    "alive": alive,
                    "generation": self._shm_store.current_generation(),
                    "version": self._servable.version}
        if op == "stats":
            snap = self.telemetry.snapshot()
            snap["registry"] = self.service.registry.stats()
            snap["cluster"] = {
                "workers": len(self._handles),
                "alive": sum(1 for h in self._handles
                             if h.process.is_alive()),
                "queue_depth": self._queue.qsize(),
                "max_queue": self.config.max_queue,
                "generation": self._shm_store.current_generation(),
                "swaps": self.swaps,
                "frontend_cpu_s": time.process_time(),
            }
            return snap
        if op == "reload":
            generation = await self._maybe_swap(force=True)
            return {"reloaded": generation is not None,
                    "generation": self._shm_store.current_generation(),
                    "version": self._servable.version}
        # models/ingest: the threaded server's handlers, run on an
        # executor thread so the event loop keeps accepting connections
        # (ingest mutates parent-side state: the process-global
        # adjacency cache).
        return await asyncio.get_running_loop().run_in_executor(
            None, execute, self.service, op, query, body)

    async def _dispatch_worker(self, op: str, query: Dict[str, str]
                               ) -> bytes:
        """Admit one ranking request to the worker queue (or shed it).

        The workers hold only the served version's weights, so a
        ``?version=`` naming any other checkpoint is a 404.
        """
        version = query.get("version")
        if version is not None and version != self._servable.version:
            raise ApiError(404, "not_found",
                           f"version {version!r} is not served; this "
                           f"cluster serves {self._servable.version!r}")
        start = time.perf_counter()
        if not any(h.process.is_alive() for h in self._handles):
            self.telemetry.record_error(op)
            raise ApiError(503, "unavailable", "no inference workers "
                           "alive", retry_after=self.config.retry_after_s)
        # Identical in-flight requests share one queue entry and one
        # worker reply; each waiter has its own future and deadline.
        key = (op, tuple(sorted(query.items())))
        waiters = self._inflight.get(key)
        if waiters is None:
            try:
                self._queue.put_nowait((op, query, key, 0))
            except asyncio.QueueFull:
                self.telemetry.record_shed(op)
                raise ApiError(
                    429, "overloaded",
                    f"dispatch queue full ({self.config.max_queue} "
                    "requests waiting); retry later",
                    retry_after=self.config.retry_after_s) from None
            waiters = self._inflight[key] = []
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        waiters.append(waiter)
        depth = self._queue.qsize()
        deadline = loop.call_later(self.config.default_timeout,
                                   self._expire, waiter)
        try:
            payload = await waiter
        except ApiError:
            self.telemetry.record_error(op)
            raise
        finally:
            deadline.cancel()
        self.telemetry.record_request(op, time.perf_counter() - start,
                                      queue_depth=depth)
        return payload

    def _expire(self, waiter: asyncio.Future) -> None:
        """Fail ``waiter`` with a 503 timeout unless it has its answer."""
        if not waiter.done():
            waiter.set_exception(ApiError(
                503, "timeout", f"request missed its "
                f"{self.config.default_timeout:g}s deadline",
                retry_after=self.config.retry_after_s))

    def _settle(self, key, outcome: Any) -> None:
        """Hand one outcome (a body or an exception) to every waiter."""
        for waiter in self._inflight.pop(key):
            if waiter.done():               # its deadline passed
                continue
            if isinstance(outcome, BaseException):
                waiter.set_exception(outcome)
            else:
                waiter.set_result(outcome)

    async def _worker_proxy(self, slot: int) -> None:
        """One task per worker: pull from the queue, ask over the link.

        A crashed worker (EOF mid-reply) is respawned into the same slot
        and the request retried up to ``crash_retries`` times; the
        retries ride the front of the queue so a crash cannot reorder a
        request behind the whole backlog.
        """
        loop = asyncio.get_running_loop()
        link = await _WorkerLink.open(self._handles[slot])
        try:
            while True:
                op, query, key, attempts = await self._queue.get()
                if all(w.done() for w in self._inflight[key]):
                    del self._inflight[key]  # every waiter timed out
                    continue
                try:
                    kind, body = await link.ask(next(self._req_ids), op,
                                                query)
                except _WorkerDied as exc:
                    link.close()
                    await loop.run_in_executor(None, self._respawn, slot)
                    link = await _WorkerLink.open(self._handles[slot])
                    if attempts < self.config.crash_retries:
                        try:
                            self._queue.put_nowait((op, query, key,
                                                    attempts + 1))
                            continue
                        except asyncio.QueueFull:
                            body = ApiError(
                                503, "unavailable",
                                "worker crashed and the retry queue is "
                                "full", retry_after=self.config.retry_after_s)
                    else:
                        body = ApiError(
                            503, "unavailable",
                            f"request crashed its worker on all "
                            f"{attempts + 1} attempt(s): {exc}",
                            retry_after=self.config.retry_after_s)
                except Exception as exc:    # noqa: BLE001
                    body = exc
                else:
                    if kind != "ok":
                        body = ApiError(body["status"], body["code"],
                                        body["message"],
                                        retry_after=body.get("retry_after"))
                self._settle(key, body)
        finally:
            link.close()

    def _respawn(self, slot: int) -> None:
        handle = self._handles[slot]
        warnings.warn(f"repro.serve.cluster: respawning crashed worker "
                      f"{slot}", RuntimeWarning, stacklevel=2)
        self._handles[slot] = handle.respawn(self._ctx)

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    async def _watch_checkpoints(self) -> None:
        while True:
            await asyncio.sleep(self.config.watch_interval_s)
            try:
                await self._maybe_swap()
            except Exception as exc:        # noqa: BLE001 — keep serving
                warnings.warn(f"repro.serve.cluster: hot-swap check "
                              f"failed: {exc}", RuntimeWarning,
                              stacklevel=2)

    async def _maybe_swap(self, force: bool = False) -> Optional[int]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._swap_sync, force)

    def _swap_sync(self, force: bool) -> Optional[int]:
        """Publish a new weight generation if the best checkpoint moved.

        Runs on an executor thread (archive load + checksum are slow);
        publishing itself is atomic from the workers' point of view —
        the new segment is fully written before the control word flips.
        """
        registry = self.service.registry
        fingerprint = registry.fingerprint()
        if fingerprint is None:
            return None
        if fingerprint == self._fingerprint and not force:
            return None
        version = fingerprint[0]
        self.service.reload()               # parent-side engine caches
        registry.evict(version)             # force a fresh archive read
        servable = registry.load(version)
        published = self._shm_store.publish(servable.model.state_dict(),
                                            version=version)
        self._servable = servable
        self._fingerprint = fingerprint
        self.swaps += 1
        return published.generation
