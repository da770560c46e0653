"""RankingService and the ranking response bodies.

:func:`ranking_response` builds the JSON body of each ranking op
(``scores``, ``top_k``, ``rank``, ``delta``) from an engine's per-day
score memo; the cluster's forked workers call it for every read.

:class:`RankingService` is the front-end's parent-side facade over the
checkpoint registry: it owns the engines and the
:class:`~repro.serve.stream.StreamIngestor` behind ``POST /v1/ingest``,
and :meth:`RankingService.reload` drops its engines when the cluster
publishes new weights.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from .engine import InferenceEngine
from .registry import ModelRegistry, RegistryError
from .telemetry import ServingTelemetry


class ServiceTimeoutError(TimeoutError):
    """A request missed its deadline (raised by the query client)."""


# ----------------------------------------------------------------------
# response bodies
# ----------------------------------------------------------------------
def ranks_of(scores: np.ndarray) -> np.ndarray:
    """Each symbol's rank, 1 = highest score; ties keep symbol order."""
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(len(scores), dtype=int)
    ranks[order] = np.arange(1, len(scores) + 1)
    return ranks


def envelope(engine: InferenceEngine, day: int,
             **payload: Any) -> Dict[str, Any]:
    """The fields every ranking body carries, plus ``payload``.

    ``stale`` is always ``false``: every body is computed from the
    current weights.  The field stays so clients keep one schema.
    """
    return {"version": engine.servable.version,
            "model": engine.servable.model_name,
            "market": engine.dataset.market,
            "day": day, "stale": False, **payload}


def ranked(engine: InferenceEngine, scores: np.ndarray,
           k: Optional[int] = None) -> List[Dict[str, Any]]:
    """The ``k`` best symbols (default: all), best first, ranks from 1."""
    symbols = engine.dataset.universe.symbols
    order = np.argsort(-scores, kind="stable")[:k]
    return [{"rank": rank + 1, "symbol": symbols[i],
             "score": float(scores[i])}
            for rank, i in enumerate(order)]


def scores_body(engine: InferenceEngine, day: int,
                scores: np.ndarray) -> Dict[str, Any]:
    symbols = engine.dataset.universe.symbols
    return envelope(engine, day, scores={
        symbol: float(score) for symbol, score in zip(symbols, scores)})


def top_k_body(engine: InferenceEngine, day: int, scores: np.ndarray,
               k: int) -> Dict[str, Any]:
    k = min(int(k), len(scores))
    return envelope(engine, day, k=k, top_k=ranked(engine, scores, k))


def rank_body(engine: InferenceEngine, day: int,
              scores: np.ndarray) -> Dict[str, Any]:
    return envelope(engine, day, ranking=ranked(engine, scores))


def delta_body(engine: InferenceEngine, day: int, scores: np.ndarray,
               prior_scores: np.ndarray) -> Dict[str, Any]:
    """``delta > 0`` means the symbol climbed since the prior day."""
    symbols = engine.dataset.universe.symbols
    today_ranks, prior_ranks = ranks_of(scores), ranks_of(prior_scores)
    deltas = prior_ranks - today_ranks
    return envelope(engine, day, prior_day=day - 1, deltas=[
        {"symbol": symbols[i], "rank": int(today_ranks[i]),
         "prior_rank": int(prior_ranks[i]), "delta": int(deltas[i]),
         "score": float(scores[i])}
        for i in np.argsort(today_ranks, kind="stable")])


def ranking_response(op: str, engine: InferenceEngine, day: int,
                     k: Optional[int] = None) -> Dict[str, Any]:
    """Validate, score and build the body of one ranking op.

    ``op`` is the wire name (``scores``, ``top_k``, ``rank``, ``delta``)
    and ``day`` is already resolved.  Scores come from the engine's
    per-day memo (:meth:`InferenceEngine.cached_scores`), so a day is
    forwarded once per weight generation.  Request errors (``k < 1``, a
    delta with no prior servable day) raise ``ValueError`` before any
    forward runs.
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
    scores = engine.cached_scores(day)
    if op == "scores":
        return scores_body(engine, day, scores)
    if op == "top_k":
        return top_k_body(engine, day, scores, k)
    if op == "rank":
        return rank_body(engine, day, scores)
    return delta_body(engine, day, scores, engine.cached_scores(day - 1))


class RankingService:
    """The front-end's registry, engines and streaming ingest.

    Parameters
    ----------
    registry:
        A :class:`ModelRegistry`, or a checkpoint directory path to wrap
        in one.
    telemetry:
        Where ingest ticks are recorded (a fresh one by default).
    tick_budget_ms / stream_alpha:
        :class:`~repro.serve.stream.StreamIngestor` knobs.
    """

    def __init__(self, registry: Union[ModelRegistry, str, Path],
                 telemetry: Optional[ServingTelemetry] = None,
                 tick_budget_ms: Optional[float] = None,
                 stream_alpha: Optional[float] = None):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.telemetry = telemetry or ServingTelemetry()
        self._engines: Dict[str, InferenceEngine] = {}
        self._engines_lock = threading.Lock()
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
    # engines
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

    def reload(self) -> None:
        """Drop every cached engine so the next request reloads from disk.

        This is the path a checkpoint promotion takes.  The registry's
        copy of each dropped version goes too, so the next request
        re-reads its archive; a fresh engine also starts with an empty
        score memo.  In-flight requests keep the engine object they
        already resolved; only *new* requests see the reloaded weights.
        """
        self.registry.discover()
        with self._engines_lock:
            for name in self._engines:
                self.registry.evict(name)
            self._engines.clear()

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
        """Telemetry snapshot plus registry and streaming state."""
        snap = self.telemetry.snapshot()
        snap["registry"] = self.registry.stats()
        snap["stream"] = self._ingestor.stats()
        return snap

    def close(self) -> None:
        """Refuse further ingest; idempotent."""
        self._closed = True

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["RankingService", "ServiceTimeoutError", "RegistryError",
           "ranking_response", "envelope", "ranked", "ranks_of",
           "scores_body", "top_k_body", "rank_body", "delta_body"]
