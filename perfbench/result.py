"""One run's result: counted operations, metrics, and printed context."""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Result:
    """Collects what one run measured and prints it.

    A timing's value is in reference-host units (see :mod:`hostref`);
    its raw wall-time reading is kept beside it.  Every operation is
    counted as attempted or failed.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.rows: List[dict] = []
        self.ops: Dict[str, List[int]] = {}
        self.context: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def count(self, op: str, attempted: int, failed: int) -> None:
        row = self.ops.setdefault(op, [0, 0])
        row[0] += int(attempted)
        row[1] += int(failed)

    @property
    def attempted(self) -> int:
        return sum(row[0] for row in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(row[1] for row in self.ops.values())

    # ------------------------------------------------------------------
    def timing(self, name: str, unit: str, raw: float, factor: float,
               samples: int, what: str,
               normalised: Optional[float] = None) -> None:
        """A duration; ``factor`` converts wall time to host units, unless
        the caller normalised it sample by sample."""
        if normalised is None:
            normalised = raw * factor
        self._add(name, unit, raw, normalised, samples, what)

    def rate(self, name: str, unit: str, raw: float, factor: float,
             samples: int, what: str,
             normalised: Optional[float] = None) -> None:
        """A per-second rate; host units divide by ``factor``."""
        if normalised is None:
            normalised = raw / factor
        self._add(name, unit, raw, normalised, samples, what)

    def _add(self, name, unit, raw, normalised, samples, what) -> None:
        self.metrics[name] = {"value": float(normalised), "unit": unit}
        self.rows.append({"name": name, "unit": unit, "value": normalised,
                          "raw": raw, "normalised": normalised,
                          "samples": samples, "what": what})

    def plain(self, name: str, unit: str, value: float,
              what: str = "") -> None:
        """A value that is not a wall time (a count, a size, a share)."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.rows.append({"name": name, "unit": unit, "value": value,
                          "raw": value, "normalised": value,
                          "samples": None, "what": what})

    def reference(self, ref) -> None:
        self.context["host_ref_median_ms"] = ref.median() * 1e3
        self.context["host_ref_samples"] = len(ref.samples)
        self.context["host_ref_factor"] = ref.factor()

    # ------------------------------------------------------------------
    def emit(self, names: List[str]) -> None:
        """Print the table, the context line and the final JSON line."""
        print(f"{'metric':34s} {'value':>12s} {'unit':6s} {'raw':>12s} "
              f"{'samples':>8s}  what")
        for row in self.rows:
            samples = "" if row["samples"] is None else str(row["samples"])
            print(f"{row['name']:34s} {row['value']:12.5g} "
                  f"{row['unit']:6s} {row['raw']:12.5g} {samples:>8s}  "
                  f"{row['what']}")
        for op, (attempted, failed) in sorted(self.ops.items()):
            print(f"op {op:24s} attempted {attempted:7d}  failed {failed}")
        print("CONTEXT " + json.dumps({**self.context, "rows": self.rows},
                                      sort_keys=True, default=str))
        missing = [name for name in names if name not in self.metrics]
        metrics = {name: self.metrics[name] for name in names
                   if name in self.metrics}
        correct = self.failed == 0 and not missing
        if missing:
            print(f"missing metrics: {missing}")
        print(json.dumps({"correct": correct,
                          "attempted": max(self.attempted, 1),
                          "failed": self.failed, "metrics": metrics}))
