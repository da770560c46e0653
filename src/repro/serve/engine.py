"""Forward-only inference over a servable model.

The engine is the only place in :mod:`repro.serve` that actually runs a
model.  It pins down the two properties the serving path must guarantee:

- **No autograd allocation.** Every forward runs under
  :func:`repro.tensor.inference_mode`, so no gradient tape is built —
  serving a thousand requests leaves the tape-node counter where it
  started (a regression test asserts exactly this).
- **Explicit graph-mode dispatch.** The registered config's
  ``graph_mode`` (``dense``/``sparse``/``auto``) is applied to the model
  once via :func:`repro.nn.set_graph_mode`; sparse and dense modes
  produce bitwise-identical scores, so operators can pick per deployment
  without revalidating the model.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

import numpy as np

from ..nn import set_graph_mode
from ..obs import trace
from ..tensor import Tensor, inference_mode
from .registry import ServableModel


class InferenceEngine:
    """Score one :class:`ServableModel` on demand.

    Two entry points over the one forward:

    - :meth:`scores` always runs a real forward pass; it is what a
      memo miss costs, and ``benchmarks/bench_serving.py`` times it as
      the one-forward-per-request baseline.
    - :meth:`cached_scores` memoises by resolved day.  The weights and a
      day's feature window are both fixed for the engine's lifetime, so
      a day's ranking never changes until the weights do; cluster
      workers and the ingest re-rank score through it.  Whoever swaps
      the weights under the engine calls :meth:`forget` (a cluster
      worker, after adopting a new shared-memory generation); replacing
      the engine (:meth:`RankingService.reload`) drops the memo with it.

    The memo holds at most one ``(N,)`` float64 array per servable day:
    about 10 MB per engine on the full NASDAQ preset (854 stocks, 1,542
    days).
    """

    def __init__(self, servable: ServableModel,
                 graph_mode: Optional[str] = None):
        self.servable = servable
        self.graph_mode = graph_mode or servable.graph_mode
        self.model = servable.model
        self.model.eval()
        if self.graph_mode != "auto":
            set_graph_mode(self.model, self.graph_mode)
        self.forwards = 0
        self.forward_seconds = 0.0
        self.memo_misses = 0
        self._memo: Dict[int, np.ndarray] = {}

    @property
    def dataset(self):
        return self.servable.dataset

    def last_day(self) -> int:
        """The most recent day with a full lookback window."""
        return self.dataset.num_days - 1

    def resolve_day(self, day: Optional[int]) -> int:
        last = self.last_day()
        if day is None:
            return last
        day = int(day)
        if day < 0:
            day += self.dataset.num_days
        window = self.servable.window
        if not window - 1 <= day <= last:
            raise ValueError(
                f"day {day} outside servable range "
                f"[{window - 1}, {last}] for market "
                f"{self.dataset.market!r} (window={window})")
        return day

    def scores(self, day: Optional[int] = None) -> np.ndarray:
        """Ranking scores for every stock at ``day``, shape ``(N,)``.

        Runs tape-free; the returned array is detached by construction.
        """
        day = self.resolve_day(day)
        features = self.dataset.features(day, self.servable.window,
                                         self.servable.num_features)
        start = time.perf_counter()
        with inference_mode(), trace("inference"):
            out = self.model(Tensor(features))
        self.forwards += 1
        self.forward_seconds += time.perf_counter() - start
        return np.asarray(out.data, dtype=float).reshape(-1)

    def cached_scores(self, day: Optional[int] = None) -> np.ndarray:
        """:meth:`scores` for ``day``, computed once until :meth:`forget`.

        The returned array is read-only and shared by every caller.
        Concurrent first calls for one day may each run the forward;
        the results are bitwise-equal, so the last store wins harmlessly.
        """
        day = self.resolve_day(day)
        scores = self._memo.get(day)
        if scores is None:
            scores = self.scores(day)
            scores.flags.writeable = False
            self._memo[day] = scores
            self.memo_misses += 1
        return scores

    def forget(self) -> None:
        """Drop every memoised day (the weights under the engine moved)."""
        self._memo = {}

    def stats(self) -> Dict[str, Any]:
        return {"version": self.servable.version,
                "model": self.servable.model_name,
                "graph_mode": self.graph_mode,
                "forwards": self.forwards,
                "forward_seconds": self.forward_seconds,
                "memo_misses": self.memo_misses}
