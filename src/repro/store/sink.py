"""Benchmark artifact records: the NaN-safe payload and envelope builders.

``benchmarks/_harness.py`` publishes every artifact through these, both
as the strict-JSON ``results/<name>.json`` file and, when
``RTGCN_BENCH_STORE`` is set, as a ``benchmark`` telemetry row in the
experiment store.
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Any, Dict, Optional


def sanitize_payload(value: Any) -> Any:
    """Replace NaN/Inf floats with ``None``, recursively.

    Keeps degenerate measurements *visible* as explicit ``null`` —
    never a bare (non-JSON) ``NaN`` token, never a silently dropped
    key.  NumPy scalars are coerced to their Python equivalents.
    """
    if isinstance(value, dict):
        return {key: sanitize_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_payload(item) for item in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        try:
            return sanitize_payload(value.item())
        except (TypeError, ValueError):
            pass
    return value


def bench_envelope(name: str, payload: Dict[str, Any],
                   settings: Optional[Dict[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Wrap a bench payload in the standard artifact envelope."""
    from ..obs import SCHEMA_VERSION

    envelope = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": name,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if settings is not None:
        envelope["settings"] = dict(settings)
    envelope.update(payload)
    return envelope


def speed_record(measurement: Any, baseline: Any = None) -> Dict[str, Any]:
    """JSON-ready record of one :class:`~repro.eval.speed.SpeedMeasurement`.

    Timings at or below the timer resolution are *degenerate*: any ratio
    built from them is noise.  The record keeps every key, reports the
    unusable speedups as ``None`` (after :func:`sanitize_payload`) and
    raises a ``degenerate_timing`` flag, so a degenerate run never
    masquerades as a missing one.
    """
    from ..eval.speed import MIN_MEASURABLE_SECONDS

    degenerate = (
        measurement.train_seconds_per_epoch <= MIN_MEASURABLE_SECONDS
        or measurement.test_seconds <= MIN_MEASURABLE_SECONDS)
    entry = {
        "name": measurement.name,
        "train_seconds_per_epoch": measurement.train_seconds_per_epoch,
        "test_seconds": measurement.test_seconds,
        "phases": measurement.phases,
        "degenerate_timing": degenerate,
    }
    if baseline is not None:
        with warnings.catch_warnings():
            # speedup_over already returns NaN for sub-resolution inputs;
            # the flag above carries the signal, so the warning is noise
            # inside a bench run.
            warnings.simplefilter("ignore", RuntimeWarning)
            speedup = measurement.speedup_over(baseline)
        entry["speedup_over"] = baseline.name
        entry["train_speedup"] = speedup["train"]
        entry["test_speedup"] = speedup["test"]
        entry["degenerate_timing"] = degenerate or any(
            math.isnan(v) for v in speedup.values())
    return entry
