"""RankingService — the serving facade clients actually call.

Ties the registry, engines, and micro-batcher together behind four
ranking operations:

- :meth:`~RankingService.predict_scores` — per-symbol scores for a day;
- :meth:`~RankingService.top_k` — the k best-ranked symbols;
- :meth:`~RankingService.rank_universe` — the full ranked universe;
- :meth:`~RankingService.rank_delta` — day-over-day rank movement.

All four funnel through one micro-batched score path keyed by
``(version, day)`` and build their JSON bodies with the module-level
:func:`ranking_response`, which the cluster workers of
:mod:`repro.serve.cluster` call too — the two serving topologies answer
with the same bodies.  Concurrent requests for the same ranking share a
single forward pass.  Each request carries a deadline; on timeout the
service degrades to the **last successfully served ranking** for that
key (marked ``"stale": true``) rather than failing the client — a
ranking a few seconds old is far more useful to a trading client than an
error page.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .batcher import MicroBatcher
from .engine import InferenceEngine
from .registry import ModelRegistry, RegistryError
from .telemetry import ServingTelemetry

ScoreKey = Tuple[str, int]               # (version, day)


class ServiceTimeoutError(TimeoutError):
    """A request missed its deadline and no fallback ranking existed."""


# ----------------------------------------------------------------------
# response bodies (shared by both serving topologies)
# ----------------------------------------------------------------------
def ranks_of(scores: np.ndarray) -> np.ndarray:
    """Each symbol's rank, 1 = highest score; ties keep symbol order."""
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(len(scores), dtype=int)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def envelope(engine: InferenceEngine, day: int, stale: bool,
             **payload: Any) -> Dict[str, Any]:
    """The fields every ranking body carries, plus ``payload``."""
    return {"version": engine.servable.version,
            "model": engine.servable.model_name,
            "market": engine.dataset.market,
            "day": day, "stale": stale, **payload}


def ranked(engine: InferenceEngine, scores: np.ndarray,
           k: Optional[int] = None) -> List[Dict[str, Any]]:
    """The ``k`` best symbols (default: all), best first, ranks from 1."""
    symbols = engine.dataset.universe.symbols
    order = np.argsort(-scores, kind="stable")[:k]
    return [{"rank": rank + 1, "symbol": symbols[i],
             "score": float(scores[i])}
            for rank, i in enumerate(order)]


def scores_body(engine: InferenceEngine, day: int, scores: np.ndarray,
                stale: bool = False) -> Dict[str, Any]:
    symbols = engine.dataset.universe.symbols
    return envelope(engine, day, stale, scores={
        symbol: float(score) for symbol, score in zip(symbols, scores)})


def top_k_body(engine: InferenceEngine, day: int, scores: np.ndarray,
               k: int, stale: bool = False) -> Dict[str, Any]:
    k = min(int(k), len(scores))
    return envelope(engine, day, stale, k=k, top_k=ranked(engine, scores, k))


def rank_body(engine: InferenceEngine, day: int, scores: np.ndarray,
              stale: bool = False) -> Dict[str, Any]:
    return envelope(engine, day, stale, ranking=ranked(engine, scores))


def delta_body(engine: InferenceEngine, day: int, scores: np.ndarray,
               prior_scores: np.ndarray,
               stale: bool = False) -> Dict[str, Any]:
    """``delta > 0`` means the symbol climbed since the prior day."""
    symbols = engine.dataset.universe.symbols
    today_ranks, prior_ranks = ranks_of(scores), ranks_of(prior_scores)
    deltas = prior_ranks - today_ranks
    return envelope(engine, day, stale, prior_day=day - 1, deltas=[
        {"symbol": symbols[i], "rank": int(today_ranks[i]),
         "prior_rank": int(prior_ranks[i]), "delta": int(deltas[i]),
         "score": float(scores[i])}
        for i in np.argsort(today_ranks, kind="stable")])


def ranking_response(op: str, engine: InferenceEngine, day: int,
                     score: Callable[[int], Tuple[np.ndarray, bool]],
                     k: Optional[int] = None) -> Dict[str, Any]:
    """Validate, score and build the body of one ranking op.

    ``op`` is the wire name (``scores``, ``top_k``, ``rank``, ``delta``)
    and ``day`` is already resolved.  ``score(day)`` returns
    ``(scores, stale)``: the threaded service routes it through the
    micro-batcher, a cluster worker calls its engine directly.  Request
    errors (``k < 1``, a delta with no prior servable day) raise
    ``ValueError`` before any forward runs.
    """
    if op == "top_k":
        k = 10 if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
    elif op == "delta" and day - 1 < engine.servable.window - 1:
        raise ValueError(
            f"day {day} has no prior servable day to diff against")
    elif op not in ("scores", "rank", "delta"):
        raise ValueError(f"unknown ranking op {op!r}")
    scores, stale = score(day)
    if op == "scores":
        return scores_body(engine, day, scores, stale)
    if op == "top_k":
        return top_k_body(engine, day, scores, k, stale)
    if op == "rank":
        return rank_body(engine, day, scores, stale)
    prior_scores, prior_stale = score(day - 1)
    return delta_body(engine, day, scores, prior_scores,
                      stale or prior_stale)


class RankingService:
    """Micro-batched ranking inference over a checkpoint directory.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry`, or a checkpoint directory path to wrap
        in one.
    max_batch / max_wait_ms / workers:
        Micro-batching knobs, passed to :class:`MicroBatcher`.
        ``max_wait_ms=0, max_batch=1`` is the unbatched baseline.
    default_timeout:
        Per-request deadline in seconds; ``predict_scores(timeout=...)``
        overrides per call.
    """

    def __init__(self, registry: Union[ModelRegistry, str, Path],
                 max_batch: int = 32, max_wait_ms: float = 5.0,
                 workers: int = 1, default_timeout: float = 10.0,
                 telemetry: Optional[ServingTelemetry] = None,
                 straggler_poll_ms: Optional[float] = None,
                 idle_poll_ms: Optional[float] = None,
                 tick_budget_ms: Optional[float] = None,
                 stream_alpha: Optional[float] = None):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.telemetry = telemetry or ServingTelemetry()
        self.default_timeout = float(default_timeout)
        self._engines: Dict[str, InferenceEngine] = {}
        self._engines_lock = threading.Lock()
        self._last_served: Dict[ScoreKey, np.ndarray] = {}
        self._last_served_lock = threading.Lock()
        self._batcher = MicroBatcher(self._compute_scores,
                                     max_batch=max_batch,
                                     max_wait_ms=max_wait_ms,
                                     workers=workers,
                                     telemetry=self.telemetry,
                                     straggler_poll_ms=straggler_poll_ms,
                                     idle_poll_ms=idle_poll_ms)
        from .stream import (DEFAULT_STREAM_ALPHA,
                             DEFAULT_TICK_BUDGET_MS, StreamIngestor)
        self._ingestor = StreamIngestor(
            self,
            tick_budget_ms=(DEFAULT_TICK_BUDGET_MS
                            if tick_budget_ms is None
                            else tick_budget_ms),
            alpha=(DEFAULT_STREAM_ALPHA if stream_alpha is None
                   else stream_alpha))
        self._closed = False

    # ------------------------------------------------------------------
    # engine / batch plumbing
    # ------------------------------------------------------------------
    def engine(self, version: Optional[str] = None) -> InferenceEngine:
        """The (cached) engine for a version; loads the model on miss."""
        if version is None:
            version = self.registry.default_version()
        with self._engines_lock:
            engine = self._engines.get(version)
            if engine is None:
                engine = InferenceEngine(self.registry.load(version))
                self._engines[version] = engine
            return engine

    def reload(self, version: Optional[str] = None) -> Dict[str, Any]:
        """Drop cached engines so the next request reloads from disk.

        With ``version=None`` every cached engine is evicted — the hot
        path a checkpoint promotion takes.  The registry's copy of each
        dropped version goes too, so the next request re-reads its
        archive; a fresh engine also starts with an empty score memo.
        In-flight requests keep the engine object they already resolved;
        only *new* requests see the reloaded weights.  Returns
        ``{"reloaded": [...versions...]}``.
        """
        self.registry.discover()
        with self._engines_lock:
            if version is None:
                dropped = sorted(self._engines)
                self._engines.clear()
            else:
                dropped = [version] if version in self._engines else []
                self._engines.pop(version, None)
            for name in dropped:
                self.registry.evict(name)
        with self._last_served_lock:
            if version is None:
                self._last_served.clear()
            else:
                for key in [k for k in self._last_served if k[0] == version]:
                    del self._last_served[key]
        return {"reloaded": dropped,
                "default_version": self.registry.default_version()}

    def _compute_scores(self, key: ScoreKey) -> np.ndarray:
        version, day = key
        scores = self.engine(version).scores(day)
        with self._last_served_lock:
            self._last_served[key] = scores
        return scores

    def _scores_for(self, op: str, engine: InferenceEngine, day: int,
                    timeout: Optional[float]) -> Tuple[np.ndarray, bool]:
        """``(scores, stale)`` for a resolved day via the batched path."""
        start = time.perf_counter()
        key = (engine.servable.version, day)
        depth = self._batcher.depth()
        future = self._batcher.submit(key)
        budget = self.default_timeout if timeout is None else float(timeout)
        try:
            scores = future.result(timeout=budget)
            stale = False
        except FutureTimeoutError:
            future.cancel()
            with self._last_served_lock:
                fallback = self._last_served.get(key)
            if fallback is None:
                self.telemetry.record_error(op)
                raise ServiceTimeoutError(
                    f"no ranking for version={key[0]!r} day={day} within "
                    f"{budget:.3f}s and nothing previously served to fall "
                    "back on") from None
            scores, stale = fallback, True
        except BaseException:
            self.telemetry.record_error(op)
            raise
        self.telemetry.record_request(op, time.perf_counter() - start,
                                      queue_depth=depth, fallback=stale)
        return scores, stale

    def _respond(self, op: str, method: str, version: Optional[str],
                 day: Optional[int], timeout: Optional[float],
                 k: Optional[int] = None) -> Dict[str, Any]:
        """:func:`ranking_response` over the batched score path.

        ``method`` names the public method, the op telemetry records.
        """
        if self._closed:
            raise RuntimeError("RankingService is closed")
        engine = self.engine(version)           # raises RegistryError early
        return ranking_response(
            op, engine, engine.resolve_day(day),
            lambda d: self._scores_for(method, engine, d, timeout), k=k)

    # ------------------------------------------------------------------
    # ranking API
    # ------------------------------------------------------------------
    def predict_scores(self, version: Optional[str] = None,
                       day: Optional[int] = None,
                       timeout: Optional[float] = None) -> Dict[str, Any]:
        """Raw per-symbol scores at ``day`` (default: latest day)."""
        return self._respond("scores", "predict_scores", version, day,
                             timeout)

    def top_k(self, k: int = 10, version: Optional[str] = None,
              day: Optional[int] = None,
              timeout: Optional[float] = None) -> Dict[str, Any]:
        """The ``k`` highest-scored symbols, best first."""
        return self._respond("top_k", "top_k", version, day, timeout, k=k)

    def rank_universe(self, version: Optional[str] = None,
                      day: Optional[int] = None,
                      timeout: Optional[float] = None) -> Dict[str, Any]:
        """Every symbol with its rank (1 = best) and score."""
        return self._respond("rank", "rank_universe", version, day, timeout)

    def rank_delta(self, version: Optional[str] = None,
                   day: Optional[int] = None,
                   timeout: Optional[float] = None) -> Dict[str, Any]:
        """Day-over-day rank movement: today's rank vs the prior day's.

        ``delta > 0`` means the symbol climbed the ranking since
        yesterday.  The two days' scores go through the same batched
        path, so a burst of delta requests still coalesces.
        """
        return self._respond("delta", "rank_delta", version, day, timeout)

    # ------------------------------------------------------------------
    # streaming ingest
    # ------------------------------------------------------------------
    def ingest(self, body: Optional[Dict[str, Any]] = None,
               version: Optional[str] = None) -> Dict[str, Any]:
        """Apply one streaming day's event batch and re-rank.

        ``body`` is a :meth:`repro.data.DayEvents.to_payload` dict (or
        any dict with a ``deltas`` list of ``[i, j, weight]`` edits).
        The graph delta always lands; the fresh ranking is subject to
        the ingestor's tick budget — see
        :class:`~repro.serve.stream.StreamIngestor`.
        """
        if self._closed:
            raise RuntimeError("RankingService is closed")
        return self._ingestor.ingest(body or {}, version=version)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Telemetry snapshot plus registry/engine/queue state."""
        snap = self.telemetry.snapshot()
        snap["registry"] = self.registry.stats()
        with self._engines_lock:
            snap["engines"] = [e.stats() for e in self._engines.values()]
        snap["queue"] = {"depth": self._batcher.depth()}
        snap["stream"] = self._ingestor.stats()
        return snap

    def close(self) -> None:
        """Drain the batcher and stop its workers; idempotent."""
        if not self._closed:
            self._closed = True
            self._batcher.close()

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["RankingService", "ServiceTimeoutError", "RegistryError",
           "ranking_response", "envelope", "ranked", "ranks_of",
           "scores_body", "top_k_body", "rank_body", "delta_body"]
