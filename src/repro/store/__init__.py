"""repro.store — the queryable sqlite experiment database.

One WAL-mode sqlite3 file (stdlib only) is the run ledger: completed
runs, crash-resume state and executor telemetry are all written here.
Runs are keyed by the protocol's sha256 config fingerprint, which is
what makes **dedup-by-fingerprint** work: re-running a sweep executes
only the runs not already stored (see docs/experiment-store.md).

Layers
------
- :mod:`~repro.store.schema` — DDL, schema version, natural keys;
- :mod:`~repro.store.db` — :class:`ExperimentStore`: fork-safe
  connections, concurrent-writer-ready write verbs;
- :mod:`~repro.store.query` — typed reads (:class:`StoredRun`,
  :class:`AggregateRow`) and the ``--format {table,json,csv}``
  renderers;
- :mod:`~repro.store.sink` — the NaN-safe benchmark artifact builders
  (:func:`bench_envelope`, :func:`speed_record`);
- :mod:`~repro.store.callback` — :class:`StoreCallback`, the
  ``Trainer.fit`` write-through (per-epoch losses land in the database
  as they happen);
- :mod:`~repro.store.migrate` — idempotent ingestion of the legacy
  formats (``repro.cli db migrate``).
"""

from .callback import StoreCallback, fallback_fingerprint
from .db import ExperimentStore, StoreError
from .migrate import MigrationStats, detect_format, migrate, migrate_file
from .query import (DEFAULT_METRICS, AggregateRow, StoredRun,
                    aggregate_runs, metric_names, query_runs, render_rows,
                    store_report)
from .schema import STORE_SCHEMA_VERSION, split_experiment
from .sink import bench_envelope, sanitize_payload, speed_record

__all__ = [
    "AggregateRow", "DEFAULT_METRICS", "ExperimentStore",
    "MigrationStats", "STORE_SCHEMA_VERSION", "StoreCallback",
    "StoreError", "StoredRun", "aggregate_runs", "bench_envelope",
    "detect_format", "fallback_fingerprint", "metric_names", "migrate",
    "migrate_file", "query_runs", "render_rows", "sanitize_payload",
    "speed_record", "split_experiment", "store_report",
]
