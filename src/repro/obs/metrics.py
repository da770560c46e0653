"""Structured run telemetry: the JSON report schema and its sink.

Every observed run — a training run, a ``repro.cli profile`` invocation, a
benchmark — serialises to one JSON document so later PRs can diff perf
trajectories mechanically instead of parsing text tables.

Schema (version 1)
------------------
``RunReport`` serialises to an object with exactly these keys:

- ``schema_version`` (int) — currently ``1``;
- ``run_id`` (str) — unique id, see :func:`new_run_id`;
- ``kind`` (str) — ``"train"`` / ``"profile"`` / ``"benchmark"``;
- ``created_at`` (str) — ISO-8601 UTC timestamp;
- ``config`` (object) — free-form run configuration (market, model,
  ``TrainConfig`` fields, ...);
- ``epoch_losses`` (array of float) — per-epoch mean training loss;
- ``phases`` (object) — ``{phase: {"count": int, "seconds": float}}``
  from a :class:`~repro.obs.tracer.Tracer` snapshot;
- ``ops`` (array) — per-primitive rows ``{op, pass, count, seconds,
  bytes}`` from an :class:`~repro.obs.profiler.OpProfiler`;
- ``metrics`` (object) — scalar result metrics (MRR, IRR, seconds, ...).

:class:`MetricsSink` writes reports as ``<dir>/<run_id>.json`` and reads
them back, validating the schema on both sides.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: bump when a key is added/renamed/removed
SCHEMA_VERSION = 1

_REQUIRED_KEYS = ("schema_version", "run_id", "kind", "created_at",
                  "config", "epoch_losses", "phases", "ops", "metrics")


#: upper bounds (milliseconds) of the latency histogram buckets that
#: serving telemetry reports and the store's ``slo`` table holds, one
#: column each (:mod:`repro.store.schema`).  Cumulative Prometheus-style
#: "le" semantics: ``hist_le_10`` counts the window's requests that
#: finished in <= 10 ms; ``hist_inf`` counts all of them.
SLO_HIST_BUCKETS_MS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


def slo_hist_columns() -> tuple:
    """The slo histogram column names, bucket order then ``hist_inf``."""
    return tuple(f"hist_le_{bound}" for bound in SLO_HIST_BUCKETS_MS
                 ) + ("hist_inf",)


def latency_histogram(samples_seconds) -> dict:
    """Cumulative bucket counts (column name -> count) for raw samples.

    ``samples_seconds`` are request latencies in seconds (the unit the
    serving telemetry records); bucket bounds are milliseconds.  The
    result maps every :func:`slo_hist_columns` name, so it can be fed
    straight into the slo table — and summed across windows without
    losing information, unlike pre-computed percentiles.
    """
    counts = {column: 0 for column in slo_hist_columns()}
    for sample in samples_seconds:
        ms = float(sample) * 1000.0
        for bound in SLO_HIST_BUCKETS_MS:
            if ms <= bound:
                counts[f"hist_le_{bound}"] += 1
        counts["hist_inf"] += 1
    return counts


def new_run_id(prefix: str = "run") -> str:
    """A unique, sortable run id: ``<prefix>-<utc stamp>-<random>``."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return f"{prefix}-{stamp}-{uuid.uuid4().hex[:8]}"


def _jsonable(value: Any) -> Any:
    """Coerce configs/NumPy scalars into plain JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and callable(value.item):   # numpy scalar
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunReport:
    """One observed run, ready to serialise under schema version 1."""

    run_id: str
    kind: str
    config: Dict[str, Any] = field(default_factory=dict)
    epoch_losses: List[float] = field(default_factory=list)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    ops: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    created_at: str = field(default_factory=lambda: time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """The schema-v1 JSON object for this report."""
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "kind": self.kind,
            "created_at": self.created_at,
            "config": _jsonable(self.config),
            "epoch_losses": [float(x) for x in self.epoch_losses],
            "phases": _jsonable(self.phases),
            "ops": _jsonable(self.ops),
            "metrics": _jsonable(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        """Parse and validate a schema-v1 object."""
        validate_report(payload)
        return cls(run_id=payload["run_id"], kind=payload["kind"],
                   config=payload["config"],
                   epoch_losses=list(payload["epoch_losses"]),
                   phases=payload["phases"], ops=list(payload["ops"]),
                   metrics=payload["metrics"],
                   created_at=payload["created_at"],
                   schema_version=payload["schema_version"])


def validate_report(payload: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid schema-v1 report."""
    if not isinstance(payload, dict):
        raise ValueError(f"report must be an object, got {type(payload)}")
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise ValueError(f"report missing required keys: {missing}")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version "
                         f"{payload['schema_version']!r} "
                         f"(expected {SCHEMA_VERSION})")
    if not isinstance(payload["epoch_losses"], list):
        raise ValueError("epoch_losses must be an array")
    if not isinstance(payload["phases"], dict):
        raise ValueError("phases must be an object")
    if not isinstance(payload["ops"], list):
        raise ValueError("ops must be an array")
    for row in payload["ops"]:
        row_missing = [k for k in ("op", "pass", "count", "seconds", "bytes")
                       if k not in row]
        if row_missing:
            raise ValueError(f"op row missing keys: {row_missing}")


class TelemetryCallback:
    """Trainer callback that accumulates a :class:`RunReport` during a fit.

    Duck-typed to the :class:`repro.core.callbacks.TrainerCallback`
    protocol (deliberately not a subclass, so :mod:`repro.obs` stays
    importable without :mod:`repro.core`).  Pass one to
    ``Trainer.fit(callbacks=[...])``; when the fit ends, :attr:`report`
    holds the run id, per-epoch losses, batch count, and — if a tracer was
    active via :func:`~repro.obs.tracer.use_tracer` — the phase breakdown.
    """

    def __init__(self, kind: str = "train", config: Any = None,
                 run_id: Optional[str] = None):
        self.report = RunReport(
            run_id=run_id if run_id is not None else new_run_id(kind),
            kind=kind, config=_jsonable(config) if config is not None else {})
        self.num_batches = 0

    def on_epoch_start(self, trainer, epoch: int) -> None:
        """No-op; present to satisfy the callback protocol."""

    def on_batch_end(self, trainer, epoch: int, day: int,
                     loss: float) -> None:
        """Count batches."""
        self.num_batches += 1

    def on_epoch_end(self, trainer, epoch: int, mean_loss: float) -> None:
        """Append the epoch's mean loss to the report."""
        self.report.epoch_losses.append(float(mean_loss))

    def on_fit_end(self, trainer, losses) -> None:
        """Capture the active tracer's phase snapshot into the report."""
        from .tracer import current_tracer
        self.report.phases = current_tracer().snapshot()
        self.report.metrics.setdefault("num_batches", self.num_batches)


class MetricsSink:
    """Writes/reads :class:`RunReport` JSON files under one directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, report: RunReport) -> Path:
        return self.directory / f"{report.run_id}.json"

    def write(self, report: RunReport) -> Path:
        """Serialise ``report``; returns the path written."""
        payload = report.to_dict()
        validate_report(payload)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(report)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def read(self, ref: Union[str, Path]) -> RunReport:
        """Load and validate a report by run id or by path.

        A bare run id (``sink.read(report.run_id)``) resolves to
        ``<directory>/<run_id>.json``; anything naming an existing file is
        read as-is.
        """
        path = Path(ref)
        if not path.exists():
            name = path.name
            if not name.endswith(".json"):
                name += ".json"
            path = self.directory / name
        payload = json.loads(path.read_text())
        return RunReport.from_dict(payload)

    def list_runs(self) -> List[Path]:
        """All report files in the sink directory, sorted by name."""
        if not self.directory.exists():
            return []
        return sorted(self.directory.glob("*.json"))
