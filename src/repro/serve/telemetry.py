"""Serving telemetry: latency percentiles, queue depth, SLO windows.

The cluster front-end reports every admitted, shed or failed request
here, and the ingest path every tick.  A snapshot rolls the raw samples
up into the numbers a latency dashboard wants — p50/p95/p99 end-to-end
latency overall and per endpoint, the queue-depth distribution, and the
adjacency-cache hit rate — and :meth:`ServingTelemetry.report`
publishes them through the schema-v1 JSON sink of :mod:`repro.obs` so
serving runs leave the same machine-diffable artifacts as training and
benchmark runs.

All recorders are thread-safe: the event loop and the executor threads
that run ingest ticks call them concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Any, Dict, Optional

import numpy as np

from ..obs import RunReport, new_run_id
from ..obs.metrics import latency_histogram

#: retain this many most-recent latency / queue-depth samples; serving runs
#: are unbounded streams, percentiles over a recent window are what a
#: dashboard wants anyway.
DEFAULT_MAX_SAMPLES = 16384

_PERCENTILES = (50.0, 95.0, 99.0)

def _percentile_summary(samples) -> Dict[str, float]:
    """``{count, mean, p50, p95, p99, max}`` of a sample window."""
    if not samples:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0}
    array = np.asarray(samples, dtype=float)
    p50, p95, p99 = np.percentile(array, _PERCENTILES)
    return {"count": int(array.size), "mean": float(array.mean()),
            "p50": float(p50), "p95": float(p95), "p99": float(p99),
            "max": float(array.max())}


class ServingTelemetry:
    """Thread-safe accumulator for one serving process's metrics.

    Parameters
    ----------
    max_samples:
        Rolling window size for latency / queue-depth percentiles.
    slo_p99_ms:
        Optional p99 latency budget.  When set, every snapshot carries
        an ``slo`` block (target, observed p50/p99, whether the window
        is within budget) and :meth:`report` exposes the same numbers as
        flat metrics — the rows the experiment store's ``slo`` table is
        fed from.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES,
                 slo_p99_ms: Optional[float] = None):
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._latencies = deque(maxlen=max_samples)
        self._queue_depths = deque(maxlen=max_samples)
        self._ops: Counter = Counter()
        # per-endpoint windows/counters, keyed by the /v1/ op name
        self._op_latencies: Dict[str, deque] = {}
        self._op_requests: Counter = Counter()
        self._op_fallbacks: Counter = Counter()
        self._op_errors: Counter = Counter()
        self._op_shed: Counter = Counter()
        self.slo_p99_ms = (float(slo_p99_ms) if slo_p99_ms is not None
                           else None)
        self.started_at = time.time()          # wall timestamp, report only
        self._started_mono = time.monotonic()  # uptime must survive NTP steps
        self.requests = 0
        self.fallbacks = 0
        self.errors = 0
        self.shed = 0

    # ------------------------------------------------------------------
    # recorders
    # ------------------------------------------------------------------
    def record_request(self, op: str, latency_s: float,
                       queue_depth: Optional[int] = None,
                       fallback: bool = False) -> None:
        """One client-visible request completed (op = scores/top_k/...)."""
        with self._lock:
            self.requests += 1
            self._ops[op] += 1
            self._latencies.append(float(latency_s))
            window = self._op_latencies.get(op)
            if window is None:
                window = self._op_latencies[op] = deque(
                    maxlen=self._max_samples)
            window.append(float(latency_s))
            self._op_requests[op] += 1
            if queue_depth is not None:
                self._queue_depths.append(int(queue_depth))
            if fallback:
                self.fallbacks += 1
                self._op_fallbacks[op] += 1

    def record_error(self, op: str) -> None:
        """A request failed with an exception (after retries/fallbacks)."""
        with self._lock:
            self.errors += 1
            self._ops[op] += 1
            self._op_errors[op] += 1

    def record_shed(self, op: str) -> None:
        """Admission control rejected a request (429/503, never computed)."""
        with self._lock:
            self.shed += 1
            self._ops[op] += 1
            self._op_shed[op] += 1

    # ------------------------------------------------------------------
    # rollups
    # ------------------------------------------------------------------
    def _op_snapshot_locked(self, name: str) -> Dict[str, Any]:
        latency = _percentile_summary(self._op_latencies.get(name, ()))
        snap: Dict[str, Any] = {
            "op": name,
            "requests": int(self._op_requests.get(name, 0)),
            "errors": int(self._op_errors.get(name, 0)),
            "fallbacks": int(self._op_fallbacks.get(name, 0)),
            "shed": int(self._op_shed.get(name, 0)),
            "latency_seconds": latency,
            "latency_hist_ms": latency_histogram(
                self._op_latencies.get(name, ())),
        }
        if self.slo_p99_ms is not None:
            observed_p99_ms = latency["p99"] * 1000.0
            snap["slo"] = {
                "target_p99_ms": self.slo_p99_ms,
                "observed_p50_ms": latency["p50"] * 1000.0,
                "observed_p99_ms": observed_p99_ms,
                "within": (bool(observed_p99_ms <= self.slo_p99_ms)
                           if latency["count"] else None),
            }
        return snap

    def op_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Per-endpoint rollups, keyed by ``/v1/`` op name.

        Each value has the ``latency_seconds``/``slo``/counter shape of
        :meth:`snapshot`, so it can feed
        :meth:`repro.store.ExperimentStore.record_slo` directly — these
        are the rows that populate the ``slo`` table's ``op`` column.
        """
        with self._lock:
            names = (set(self._op_latencies) | set(self._op_requests)
                     | set(self._op_errors) | set(self._op_shed))
            return {name: self._op_snapshot_locked(name)
                    for name in sorted(names)}

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time rollup of everything recorded so far."""
        from ..graph.cache import adjacency_cache

        with self._lock:
            latency = _percentile_summary(self._latencies)
            queue_depth = _percentile_summary(self._queue_depths)
            # Uptime off the monotonic clock: a wall-clock NTP step would
            # corrupt requests_per_second (negative or wildly inflated).
            elapsed = max(time.monotonic() - self._started_mono, 1e-9)
            payload = {
                "uptime_seconds": elapsed,
                "started_at": self.started_at,
                "requests": self.requests,
                "errors": self.errors,
                "fallbacks": self.fallbacks,
                "shed": self.shed,
                "requests_per_second": self.requests / elapsed,
                "ops": dict(self._ops),
                "latency_seconds": latency,
                "latency_hist_ms": latency_histogram(self._latencies),
                "queue_depth": queue_depth,
                "per_op": {
                    name: self._op_snapshot_locked(name)
                    for name in sorted(set(self._op_latencies)
                                       | set(self._op_requests)
                                       | set(self._op_errors)
                                       | set(self._op_shed))},
            }
            if self.slo_p99_ms is not None:
                observed_p99_ms = latency["p99"] * 1000.0
                payload["slo"] = {
                    "target_p99_ms": self.slo_p99_ms,
                    "observed_p50_ms": latency["p50"] * 1000.0,
                    "observed_p99_ms": observed_p99_ms,
                    "within": (bool(observed_p99_ms <= self.slo_p99_ms)
                               if latency["count"] else None),
                }
        cache = adjacency_cache().stats()
        lookups = cache["hits"] + cache["misses"]
        payload["adjacency_cache"] = {
            **cache,
            "hit_rate": cache["hits"] / lookups if lookups else 0.0,
        }
        return payload

    def report(self, config: Optional[Dict[str, Any]] = None,
               run_id: Optional[str] = None) -> RunReport:
        """The snapshot as a schema-v1 :class:`~repro.obs.RunReport`.

        Scalar headline numbers go in ``metrics`` (the schema's flat
        result map); the full structured snapshot — percentile blocks,
        the per-endpoint windows — rides under ``config["serving"]`` so
        both mechanical diffing and ad-hoc inspection work.
        """
        snap = self.snapshot()
        metrics = {
            "requests": float(snap["requests"]),
            "errors": float(snap["errors"]),
            "fallbacks": float(snap["fallbacks"]),
            "shed": float(snap["shed"]),
            "requests_per_second": snap["requests_per_second"],
            "latency_p50_seconds": snap["latency_seconds"]["p50"],
            "latency_p95_seconds": snap["latency_seconds"]["p95"],
            "latency_p99_seconds": snap["latency_seconds"]["p99"],
            "adjacency_cache_hit_rate":
                snap["adjacency_cache"]["hit_rate"],
        }
        if "slo" in snap:
            slo = snap["slo"]
            metrics["slo_target_p99_ms"] = slo["target_p99_ms"]
            metrics["slo_observed_p99_ms"] = slo["observed_p99_ms"]
            if slo["within"] is not None:
                metrics["slo_within"] = 1.0 if slo["within"] else 0.0
        full_config = dict(config or {})
        full_config["serving"] = snap
        return RunReport(
            run_id=run_id if run_id is not None else new_run_id("serve"),
            kind="serving", config=full_config, metrics=metrics)
