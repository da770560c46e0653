"""Online ingest: delta-update the live graph, re-rank within a budget.

The ranking reads answer "what is today's ranking" against a frozen
dataset.  Streaming markets (:mod:`repro.data.stream`) change the
relation graph *between* requests, so the serving tier needs an ingest
path: ``POST /v1/ingest`` hands it one day's event batch, and the
:class:`StreamIngestor`

1. **applies the deltas** to a live
   :class:`~repro.graph.DynamicNormalizedAdjacency` held in the
   process-global :func:`~repro.graph.adjacency_cache` (the whole update
   runs under the cache lock via
   :meth:`NormalizedAdjacencyCache.apply_delta`, renormalizing only the
   touched rows — O(affected) instead of O(nnz));
2. **re-ranks** by smoothing the model's base scores (memoised per
   engine: one forward per weight load) over the updated normalized
   adjacency — ``s' = (1 − α)·s + α·(Â s)`` — a relational
   re-ranking pass that works for every strategy and is O(nnz);
3. enforces a **tick budget**: if the tick overruns
   ``tick_budget_ms`` before the fresh ranking exists, the *last served
   ranking* is returned instead (marked ``"fallback": true``), so a slow
   tick degrades to a slightly stale answer rather than stalling the
   stream.  The graph update itself always lands — correctness of the
   adjacency is never sacrificed to the budget, only ranking freshness.

One ingestor serves all model versions; state is per ``(version, mode)``
and survives cache eviction (the ingestor keeps the authoritative
reference and re-seeds the cache on a miss).
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graph import DynamicNormalizedAdjacency, adjacency_cache
from .service import ranked

#: default per-tick latency budget (graph delta + re-rank), milliseconds
DEFAULT_TICK_BUDGET_MS = 250.0

#: default smoothing weight of the relational re-ranking pass
DEFAULT_STREAM_ALPHA = 0.5


class _StreamState:
    """Per-version live graph + last served ranking."""

    def __init__(self, key: Tuple, dynamic: DynamicNormalizedAdjacency):
        self.key = key
        self.dynamic = dynamic
        self.last_ranking: Optional[List[Dict[str, Any]]] = None
        self.last_day: Optional[int] = None
        self.ticks = 0
        self.fallbacks = 0
        self.applied_edits = 0
        self.touched_rows = 0


def _parse_deltas(raw: Any, n: int) -> List[Tuple[int, int, float]]:
    """Validate a tick's ``deltas`` before any edit lands.

    Each entry is ``[i, j, weight]``: integer stock indices inside the
    served universe of ``n`` and a finite weight (``json.loads`` accepts
    ``NaN`` and ``Infinity``).  Anything else raises ``ValueError``,
    which both topologies answer with ``400 bad_request``.
    """
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ValueError(f"deltas must be a list of [i, j, weight] "
                         f"entries, got {raw!r}")
    deltas: List[Tuple[int, int, float]] = []
    for item in raw:
        if not (isinstance(item, (list, tuple)) and len(item) == 3):
            raise ValueError(f"delta entries must be [i, j, weight], "
                             f"got {item!r}")
        i, j, w = item
        if not all(isinstance(x, numbers.Integral)
                   and not isinstance(x, bool) for x in (i, j)):
            raise ValueError(f"delta indices must be integers, got {item!r}")
        if isinstance(w, bool) or not isinstance(w, numbers.Real) \
                or not math.isfinite(w):
            raise ValueError(f"delta weight must be a finite number, "
                             f"got {item!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"delta ({i}, {j}) outside the served "
                             f"universe of {n} stocks")
        deltas.append((int(i), int(j), float(w)))
    return deltas


class StreamIngestor:
    """Applies per-day event batches to the serving tier.

    Parameters
    ----------
    service:
        The owning :class:`~repro.serve.service.RankingService` — source
        of engines (base scores) and telemetry.
    tick_budget_ms:
        Budget for one ingest tick; overruns fall back to the last
        served ranking.
    alpha:
        Weight of the graph-smoothing term in the re-ranking pass.
    mode:
        Representation of the live adjacency (``csr`` default; ``dense``
        for tiny universes / debugging).
    """

    def __init__(self, service, tick_budget_ms: float = DEFAULT_TICK_BUDGET_MS,
                 alpha: float = DEFAULT_STREAM_ALPHA, mode: str = "csr"):
        if tick_budget_ms <= 0:
            raise ValueError(f"tick_budget_ms must be > 0, got "
                             f"{tick_budget_ms}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.service = service
        self.tick_budget_ms = float(tick_budget_ms)
        self.alpha = float(alpha)
        self.mode = mode
        self._states: Dict[str, _StreamState] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _state_for(self, version: str, engine) -> _StreamState:
        with self._lock:
            state = self._states.get(version)
            if state is None:
                base = engine.dataset.relations.type_counts()
                dynamic = DynamicNormalizedAdjacency(base, mode=self.mode)
                key = ("stream", version, self.mode)
                adjacency_cache().put(key, dynamic)
                state = _StreamState(key, dynamic)
                self._states[version] = state
            return state

    def reset(self, version: Optional[str] = None) -> None:
        """Drop stream state (all versions by default); next ingest
        re-seeds from the dataset's base relations."""
        with self._lock:
            targets = ([version] if version is not None
                       else list(self._states))
            for name in targets:
                state = self._states.pop(name, None)
                if state is not None:
                    adjacency_cache().invalidate(state.key)

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def ingest(self, body: Dict[str, Any],
               version: Optional[str] = None) -> Dict[str, Any]:
        """Apply one day's event batch and re-rank within the budget."""
        start = time.perf_counter()
        budget_s = self.tick_budget_ms / 1000.0
        engine = self.service.engine(version)
        version = engine.servable.version
        state = self._state_for(version, engine)
        n = state.dynamic.num_nodes

        deltas = _parse_deltas(body.get("deltas"), n)

        touched = 0
        if deltas:
            cache = adjacency_cache()
            try:
                touched = cache.apply_delta(state.key, deltas)
            except KeyError:
                # The LRU evicted the stream entry; the ingestor holds
                # the authoritative graph — re-seed and apply through
                # the cache so the update still runs under its lock.
                cache.put(state.key, state.dynamic)
                touched = cache.apply_delta(state.key, deltas)

        day = body.get("day")
        fallback = False
        elapsed = time.perf_counter() - start
        if elapsed > budget_s and state.last_ranking is not None:
            # Overrun before re-ranking: serve the previous ranking.
            ranking = state.last_ranking
            fallback = True
        else:
            ranking = self._rerank(engine, state)
            state.last_ranking = ranking
            state.last_day = day
        elapsed = time.perf_counter() - start

        state.ticks += 1
        state.applied_edits += len(deltas)
        state.touched_rows += touched
        if fallback:
            state.fallbacks += 1
        self.service.telemetry.record_request("ingest", elapsed,
                                              fallback=fallback)
        return {
            "op": "ingest",
            "version": version,
            "model": engine.servable.model_name,
            "market": engine.dataset.market,
            "day": day,
            "regime": body.get("regime"),
            "universe": n,
            "applied_edits": len(deltas),
            "listings": len(body.get("listings") or []),
            "touched_rows": touched,
            "tick_ms": elapsed * 1000.0,
            "budget_ms": self.tick_budget_ms,
            "overrun": bool(elapsed > budget_s),
            "fallback": fallback,
            "ticks": state.ticks,
            "fallbacks": state.fallbacks,
            "ranking": ranking[:10],
            "graph": state.dynamic.stats(),
        }

    def _rerank(self, engine, state: _StreamState
                ) -> List[Dict[str, Any]]:
        """Smooth base scores over the live Â and rank the universe.

        The base scores come from the engine's per-day memo, so only the
        first tick after a (re)load runs a forward.
        """
        scores = np.asarray(engine.cached_scores(None), dtype=np.float64)
        return ranked(engine, self._smooth(state.dynamic, scores))

    def _smooth(self, dynamic: DynamicNormalizedAdjacency,
                scores: np.ndarray) -> np.ndarray:
        normalized = dynamic.normalized()
        if dynamic.mode == "dense":
            propagated = normalized @ scores
        else:
            pattern = normalized.pattern
            propagated = np.zeros(dynamic.num_nodes)
            np.add.at(propagated, pattern.rows,
                      normalized.data * scores[pattern.indices])
        return (1.0 - self.alpha) * scores + self.alpha * propagated

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "tick_budget_ms": self.tick_budget_ms,
                "alpha": self.alpha,
                "mode": self.mode,
                "versions": {
                    version: {
                        "ticks": state.ticks,
                        "fallbacks": state.fallbacks,
                        "applied_edits": state.applied_edits,
                        "touched_rows": state.touched_rows,
                        "last_day": state.last_day,
                        "graph": state.dynamic.stats(),
                    } for version, state in self._states.items()},
            }


__all__ = ["StreamIngestor", "DEFAULT_TICK_BUDGET_MS",
           "DEFAULT_STREAM_ALPHA"]
