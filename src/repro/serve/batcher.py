"""Micro-batching request scheduler.

Concurrent ranking requests almost always ask for the same thing — the
latest scores of the same model version.  The :class:`MicroBatcher` sits
between the request threads and the :class:`~repro.serve.engine`
forwards and coalesces such requests: a worker drains the queue up to
``max_batch`` entries or until ``max_wait_ms`` elapses since the first
entry, groups what it collected by ``(version, day)``, computes each
distinct group **once**, and resolves every request in the group with the
shared result.  Under load, one forward pass serves many requests; when
idle, a lone request waits at most the max-wait deadline.

The batcher is generic over the compute function — it never imports the
engine — which keeps it independently testable with a stub and reusable
for any keyed idempotent computation.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Hashable, List, Optional

from .telemetry import ServingTelemetry

#: how long a worker blocks on an empty queue before re-checking the stop
#: flag; bounds shutdown latency, invisible to request latency.
#: Overridable per batcher via ``idle_poll_ms``.
_IDLE_POLL_SECONDS = 0.05

#: default straggler poll as a fraction of the batch window: each wait
#: inside the window is ``max_wait / 8`` unless ``straggler_poll_ms``
#: overrides it.
_STRAGGLER_FRACTION = 8.0


class _Request:
    __slots__ = ("key", "future", "enqueued_at")

    def __init__(self, key: Hashable):
        self.key = key
        self.future: "Future[Any]" = Future()
        self.enqueued_at = time.monotonic()


class BatcherClosedError(RuntimeError):
    """Submit after :meth:`MicroBatcher.close` — the caller raced shutdown."""


class MicroBatcher:
    """Coalesce keyed requests into shared computations.

    Parameters
    ----------
    compute:
        ``compute(key) -> result`` for one distinct key.  Must be safe to
        call from worker threads.  Exceptions propagate to every request
        waiting on that key (other keys in the batch are unaffected).
    max_batch:
        Upper bound on requests drained into one batch.
    max_wait_ms:
        How long the worker lingers for more requests after the first one
        arrives.  ``0`` degenerates to batch-size-1 — one forward per
        request — which is exactly the baseline the load test compares
        against.
    straggler_poll_ms:
        How long each in-window wait for one more request lasts; the
        first empty poll dispatches the batch early.  Default: an eighth
        of the window.  Surfaced as ``ServeConfig.straggler_poll_ms``.
    idle_poll_ms:
        How long an idle worker blocks before re-checking the stop flag
        (bounds shutdown latency only).
    workers:
        Worker thread count.  One worker strictly serializes forwards
        (usually right for a CPU-bound model); more overlap distinct keys.

    All deadlines use the monotonic clock: a wall-clock (``time.time``)
    deadline misfires when NTP steps the clock — a backward step would
    stretch the batch window arbitrarily, a forward step would collapse
    it to zero and defeat coalescing.
    """

    def __init__(self, compute: Callable[[Hashable], Any],
                 max_batch: int = 32, max_wait_ms: float = 5.0,
                 workers: int = 1,
                 telemetry: Optional[ServingTelemetry] = None,
                 straggler_poll_ms: Optional[float] = None,
                 idle_poll_ms: Optional[float] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._compute = compute
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        if straggler_poll_ms is not None and straggler_poll_ms <= 0:
            raise ValueError(f"straggler_poll_ms must be > 0, got "
                             f"{straggler_poll_ms}")
        self.straggler_poll = (float(straggler_poll_ms) / 1000.0
                               if straggler_poll_ms is not None
                               else self.max_wait / _STRAGGLER_FRACTION)
        self.idle_poll = (float(idle_poll_ms) / 1000.0
                          if idle_poll_ms is not None else _IDLE_POLL_SECONDS)
        self.telemetry = telemetry
        self._queue: "queue.Queue[_Request]" = queue.Queue()
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-serve-batcher-{i}", daemon=True)
            for i in range(workers)]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(self, key: Hashable) -> "Future[Any]":
        """Enqueue a request; the future resolves with ``compute(key)``."""
        if self._stop.is_set():
            raise BatcherClosedError("batcher is shut down")
        request = _Request(key)
        self._queue.put(request)
        return request.future

    def depth(self) -> int:
        """Requests currently queued (approximate, for telemetry)."""
        return self._queue.qsize()

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting work, finish what is queued, join the workers."""
        if self._stop.is_set():
            return
        self._stop.set()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(max(0.0, deadline - time.monotonic()))
        # Anything still queued after the join deadline fails loudly
        # instead of hanging its caller forever.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if not request.future.done():
                request.future.set_exception(
                    BatcherClosedError("batcher shut down before this "
                                       "request was served"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._serve_batch(batch)

    def _collect_batch(self) -> Optional[List[_Request]]:
        """Block for the first request, then linger for the batch window.

        Returns None only when stopped *and* drained — close() waits for
        queued work to finish before the workers exit.
        """
        while True:
            try:
                first = self._queue.get(timeout=self.idle_poll)
                break
            except queue.Empty:
                if self._stop.is_set():
                    return None
        batch = [first]
        deadline = time.monotonic() + self.max_wait
        # Lingering the whole window when no more requests are in flight
        # would cap throughput at batch/window; instead each wait is a
        # short straggler poll, and the first empty poll dispatches the
        # batch early.  The full window still bounds worst-case latency.
        while len(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                batch.append(self._queue.get(
                    timeout=min(remaining, self.straggler_poll)))
            except queue.Empty:
                break
        return batch

    def _serve_batch(self, batch: List[_Request]) -> None:
        groups: Dict[Hashable, List[_Request]] = {}
        for request in batch:
            groups.setdefault(request.key, []).append(request)
        for key, requests in groups.items():
            # A request whose client already gave up (per-request timeout
            # cancels the future) should not cost a forward.
            live = [r for r in requests if not r.future.cancelled()]
            if not live:
                continue
            start = time.perf_counter()
            try:
                result = self._compute(key)
            except BaseException as exc:  # noqa: BLE001 — route to callers
                for request in live:
                    request.future.set_exception(exc)
                continue
            elapsed = time.perf_counter() - start
            if self.telemetry is not None:
                self.telemetry.record_batch(len(live), elapsed)
            for request in live:
                if not request.future.cancelled():
                    request.future.set_result(result)
