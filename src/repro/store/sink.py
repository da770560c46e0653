"""``ResultSink``: one write API over every result substrate.

Before this module the repo had three incompatible ways to persist a
result: the journal-v2 files ``repro.parallel`` resumes from, the
schema-v1 JSON reports ``repro.obs`` emits, and the ad-hoc
``benchmarks/results/*.json`` artifacts.  Each producer hard-coded its
substrate.  A :class:`ResultSink` abstracts the destination behind three
verbs —

- :meth:`~ResultSink.write_run` — one completed seeded run
  (:class:`RunRecord`);
- :meth:`~ResultSink.write_report` — a schema-v1
  :class:`~repro.obs.RunReport` (pool/serving telemetry, profiles);
- :meth:`~ResultSink.write_bench` — a benchmark artifact envelope;

— with three implementations: :class:`StoreSink` (the sqlite store),
:class:`JsonSink` (the legacy file formats, byte-compatible), and
:class:`TeeSink` (fan-out, e.g. journal *and* store during migration).
The bench harness's ``publish_result`` writes through it.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from .db import ExperimentStore


@dataclass
class RunRecord:
    """Everything a sink needs to persist one completed seeded run."""

    experiment: str
    run_index: int
    metrics: Dict[str, float]
    train_seconds: float
    test_seconds: float
    fingerprint: Optional[str] = None
    seed: Optional[int] = None
    kind: str = "experiment"
    source: str = "live"
    #: protocol shape, so sinks can register the config/fingerprint pair
    config: Optional[Dict[str, Any]] = None
    n_runs: Optional[int] = None
    base_seed: Optional[int] = None
    epoch_losses: Optional[List[float]] = field(default=None, repr=False)


class ResultSink:
    """Abstract destination for runs, reports, and bench artifacts.

    Subclasses override the verbs they support; the defaults are no-ops
    so a sink may care about only one result class (e.g. a journal only
    persists runs).
    """

    def write_run(self, record: RunRecord) -> None:
        """Persist one completed run."""

    def write_report(self, report: Any) -> Optional[Path]:
        """Persist a schema-v1 report (RunReport or its dict form)."""
        return None

    def write_bench(self, name: str, envelope: Dict[str, Any]
                    ) -> Optional[Path]:
        """Persist one benchmark artifact envelope."""
        return None

    def close(self) -> None:
        """Release resources (connections, file handles)."""


class StoreSink(ResultSink):
    """Writes every result class into an :class:`ExperimentStore`."""

    def __init__(self, store: Union[ExperimentStore, str, Path]):
        self.store = (store if isinstance(store, ExperimentStore)
                      else ExperimentStore(store))

    def write_run(self, record: RunRecord) -> None:
        if record.fingerprint is None:
            raise ValueError("StoreSink needs RunRecord.fingerprint (the "
                             "store's natural key)")
        self.store.record_run(
            record.experiment, record.fingerprint, record.run_index,
            record.metrics, seed=record.seed,
            train_seconds=record.train_seconds,
            test_seconds=record.test_seconds, kind=record.kind,
            source=record.source, epoch_losses=record.epoch_losses,
            config=record.config, n_runs=record.n_runs,
            base_seed=record.base_seed)

    def write_report(self, report: Any) -> Optional[Path]:
        self.store.record_report(report)
        return self.store.path

    def write_bench(self, name: str, envelope: Dict[str, Any]
                    ) -> Optional[Path]:
        # One telemetry row per benchmark name: a re-run replaces the
        # artifact exactly like rewriting results/<name>.json does.
        self.store.record_report(sanitize_payload(envelope),
                                 kind="benchmark",
                                 report_id=f"bench:{name}")
        return self.store.path

    def close(self) -> None:
        self.store.close()


class JsonSink(ResultSink):
    """The legacy file substrates, unchanged on disk.

    - runs → the fingerprinted journal-v2 file the protocol resumes
      from (``<dir>/experiment-<name>.json``);
    - reports → schema-v1 documents via
      :class:`repro.obs.MetricsSink` (``<dir>/<run_id>.json``);
    - bench envelopes → ``<dir>/<name>.json`` with NaN/Inf written as
      ``null`` (strict JSON).
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def write_run(self, record: RunRecord) -> None:
        from ..eval.protocol import _ExperimentJournal

        fields = None
        if record.config is not None:
            fields = {"config": record.config, "n_runs": record.n_runs,
                      "base_seed": record.base_seed}
        journal = _ExperimentJournal(
            self.directory, record.experiment,
            record.n_runs if record.n_runs is not None
            else record.run_index + 1,
            record.base_seed if record.base_seed is not None else 0,
            record.fingerprint, fingerprint_fields=fields)
        journal.record(record.run_index, record.metrics,
                       record.train_seconds, record.test_seconds)

    def write_report(self, report: Any) -> Optional[Path]:
        from ..obs import MetricsSink, RunReport

        if isinstance(report, dict):
            report = RunReport.from_dict(report)
        return MetricsSink(self.directory).write(report)

    def write_bench(self, name: str, envelope: Dict[str, Any]
                    ) -> Optional[Path]:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(sanitize_payload(envelope), indent=2,
                                   sort_keys=True, allow_nan=False)
                        + "\n")
        return path


class TeeSink(ResultSink):
    """Fans every write out to several sinks, first-listed first."""

    def __init__(self, *sinks: ResultSink):
        self.sinks = [sink for sink in sinks if sink is not None]

    def write_run(self, record: RunRecord) -> None:
        for sink in self.sinks:
            sink.write_run(record)

    def write_report(self, report: Any) -> Optional[Path]:
        path = None
        for sink in self.sinks:
            result = sink.write_report(report)
            path = path if path is not None else result
        return path

    def write_bench(self, name: str, envelope: Dict[str, Any]
                    ) -> Optional[Path]:
        path = None
        for sink in self.sinks:
            result = sink.write_bench(name, envelope)
            path = path if path is not None else result
        return path

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# record builders shared by sinks and the bench harness
# ----------------------------------------------------------------------
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


def run_record_from_result(experiment: str, run_index: int,
                           metrics: Dict[str, float], result: Any, *,
                           fingerprint: Optional[str] = None,
                           seed: Optional[int] = None,
                           config: Optional[Dict[str, Any]] = None,
                           n_runs: Optional[int] = None,
                           base_seed: Optional[int] = None,
                           kind: str = "experiment") -> RunRecord:
    """Build a :class:`RunRecord` from a ``TrainResult``-shaped object.

    Works for :class:`~repro.core.trainer.TrainResult` (``epoch_losses``
    attribute) and :class:`~repro.baselines.base.PredictorResult`
    (``extras["epoch_losses"]``) alike.
    """
    epoch_losses = getattr(result, "epoch_losses", None)
    if epoch_losses is None:
        epoch_losses = getattr(result, "extras", {}).get("epoch_losses")
    return RunRecord(
        experiment=experiment, run_index=run_index, metrics=dict(metrics),
        train_seconds=float(result.train_seconds),
        test_seconds=float(result.test_seconds),
        fingerprint=fingerprint, seed=seed, kind=kind, config=config,
        n_runs=n_runs, base_seed=base_seed,
        epoch_losses=([float(x) for x in epoch_losses]
                      if epoch_losses is not None else None))
