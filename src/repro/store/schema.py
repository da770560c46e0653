"""The experiment store's sqlite schema (version 3).

One database file holds every result the repo produces — protocol runs,
sweep cells, grid points, bench artifacts, pool/serving telemetry — in
five relational tables plus a ``meta`` key/value table:

``configs``
    One row per *protocol fingerprint*: the sha256 digest of the
    ``TrainConfig`` + ``n_runs`` + ``base_seed`` that shapes a family of
    runs (the same digest older journal-v2 resume files carry).  The
    fingerprint is the natural key that makes dedup-by-fingerprint work:
    a re-run of a sweep looks its configs up here before executing
    anything.
``runs``
    One row per completed seeded run, unique on ``(fingerprint,
    experiment, run_index)``.  ``experiment`` is the protocol name
    (``"RT-GCN (T)@nasdaq-mini"``); when it has the ``model@market``
    shape the two halves are denormalised into their own columns so
    queries can group by market without string surgery.
``metrics``
    The run's scalar result metrics (MRR, IRR-k, ...), one row per
    metric.  ``NULL`` encodes NaN (sqlite REAL cannot hold it); readers
    surface it as ``float("nan")`` again, so classification models'
    ``MRR = NaN`` round-trips.
``epochs``
    Per-epoch mean training loss, streamed write-through from
    ``Trainer.fit`` by :class:`~repro.store.callback.StoreCallback` (or
    backfilled from a ``TrainResult``).
``checkpoints``
    Checkpoint writes (path, cursor, size, write latency, best flag) so
    artifact-size regressions are queryable next to speed regressions.
``telemetry``
    Whole schema-v1 :class:`~repro.obs.RunReport` documents — pool
    executor reports, serving rollups, benchmark artifacts — stored as
    JSON, unique on the report id so re-migration never duplicates.
``slo``  *(added in schema version 2; histogram columns in version 3)*
    One row per serving SLO evaluation window: the p99 latency budget,
    the observed p50/p95/p99, request/error/shed counts, whether the
    window was within budget, and — since version 3 — a fixed-bucket
    cumulative latency histogram (``hist_le_<ms>`` / ``hist_inf``
    columns, bounds in
    :data:`repro.obs.metrics.SLO_HIST_BUCKETS_MS`).  Percentile
    *summaries* answer "was this window fast"; the buckets let ``db
    report`` re-derive p50/p90/p99 across *any* aggregation of windows
    (summing histograms is exact; averaging percentiles is not).
    Written at cluster/server shutdown and by ``bench_serving``, so
    latency-SLO regressions are queryable next to accuracy and speed
    regressions.

Version 1 → 2 added the slo table; 2 → 3 added its histogram columns.
Both hops are additive: opening an older file with this code migrates
it in place (missing tables via the idempotent DDL, missing columns via
``ALTER TABLE ADD COLUMN``).  Opening a *newer* file than the code
understands still refuses, so a rollback never silently writes an
incomplete schema.

REAL columns store IEEE-754 doubles exactly, which is what lets the
acceptance criterion hold: metrics read back from the store are
*bitwise* equal to what the serial protocol computed.
"""

from __future__ import annotations

# The slo table's histogram columns are these buckets: serving telemetry
# fills them without loading the store.  Frozen: changing the bounds
# would need a schema version bump.
from ..obs.metrics import (SLO_HIST_BUCKETS_MS, latency_histogram,
                           slo_hist_columns)

#: bump when a table/column is added, renamed, or removed
STORE_SCHEMA_VERSION = 3

#: versions this code can migrate *from* in place.  Every hop so far is
#: additive: re-running the idempotent DDL creates missing tables, and
#: ``_ensure_schema`` adds any missing slo histogram columns with
#: ``ALTER TABLE ADD COLUMN``; a destructive hop would add real SQL.
MIGRATABLE_VERSIONS = (1, 2)

#: executed statement-by-statement by :meth:`ExperimentStore._ensure_schema`
DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS configs (
    fingerprint TEXT PRIMARY KEY,
    config_json TEXT,
    n_runs      INTEGER,
    base_seed   INTEGER,
    created_at  TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    fingerprint   TEXT NOT NULL,
    experiment    TEXT NOT NULL,
    model         TEXT,
    market        TEXT,
    kind          TEXT NOT NULL DEFAULT 'experiment',
    run_index     INTEGER NOT NULL,
    seed          INTEGER,
    train_seconds REAL,
    test_seconds  REAL,
    source        TEXT NOT NULL DEFAULT 'live',
    created_at    TEXT NOT NULL,
    UNIQUE (fingerprint, experiment, run_index)
);

CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs (experiment);
CREATE INDEX IF NOT EXISTS idx_runs_model_market ON runs (model, market);

CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    name   TEXT NOT NULL,
    value  REAL,
    PRIMARY KEY (run_id, name)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS epochs (
    run_id INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    epoch  INTEGER NOT NULL,
    loss   REAL,
    PRIMARY KEY (run_id, epoch)
) WITHOUT ROWID;

CREATE TABLE IF NOT EXISTS checkpoints (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER REFERENCES runs (id) ON DELETE SET NULL,
    path          TEXT NOT NULL,
    epoch         INTEGER,
    batch_index   INTEGER,
    bytes         INTEGER,
    write_seconds REAL,
    is_best       INTEGER NOT NULL DEFAULT 0,
    created_at    TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS telemetry (
    id          INTEGER PRIMARY KEY,
    report_id   TEXT NOT NULL UNIQUE,
    kind        TEXT NOT NULL,
    report_json TEXT NOT NULL,
    created_at  TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_telemetry_kind ON telemetry (kind);

CREATE TABLE IF NOT EXISTS slo (
    id              INTEGER PRIMARY KEY,
    report_id       TEXT,
    source          TEXT NOT NULL DEFAULT 'serve',
    op              TEXT,
    target_p99_ms   REAL,
    observed_p50_ms REAL,
    observed_p95_ms REAL,
    observed_p99_ms REAL,
    requests        INTEGER,
    errors          INTEGER,
    shed            INTEGER,
    within          INTEGER,
    hist_le_1       INTEGER,
    hist_le_2       INTEGER,
    hist_le_5       INTEGER,
    hist_le_10      INTEGER,
    hist_le_25      INTEGER,
    hist_le_50      INTEGER,
    hist_le_100     INTEGER,
    hist_le_250     INTEGER,
    hist_le_500     INTEGER,
    hist_le_1000    INTEGER,
    hist_inf        INTEGER,
    created_at      TEXT NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_slo_source ON slo (source);
"""

#: every table the DDL creates, in a stable reporting order
TABLES = ("configs", "runs", "metrics", "epochs", "checkpoints",
          "telemetry", "slo")


def estimate_percentile(hist: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) in ms from cumulative buckets.

    Linear interpolation inside the bucket that crosses the target rank
    (0 as the lower edge of the first bucket); the overflow bucket has
    no upper bound, so anything landing there reports the last finite
    bound — a floor, honestly labelled by callers as an estimate.
    """
    total = int(hist.get("hist_inf") or 0)
    if total <= 0:
        return 0.0
    rank = q * total
    previous_bound, previous_count = 0.0, 0
    for bound in SLO_HIST_BUCKETS_MS:
        count = int(hist.get(f"hist_le_{bound}") or 0)
        if count >= rank:
            span = count - previous_count
            if span <= 0:
                return float(bound)
            fraction = (rank - previous_count) / span
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_count = float(bound), count
    return float(SLO_HIST_BUCKETS_MS[-1])


def split_experiment(experiment: str) -> tuple:
    """``"model@market" -> (model, market)``; else ``(None, None)``.

    Only the *last* ``@`` splits, so model names containing ``@`` (none
    today, but nothing forbids them) keep their prefix intact.
    """
    if "@" in experiment:
        model, _, market = experiment.rpartition("@")
        if model and market:
            return model, market
    return None, None
