"""``ExperimentStore``: the sqlite3 connection and write path.

Design constraints, in order:

1. **stdlib only** — ``sqlite3`` ships with CPython; no new deps.
2. **Concurrent writers** — the parallel executor forks workers that
   stream per-epoch metrics while the parent records run rows.  The
   database runs in WAL mode (readers never block the writer, writers
   queue instead of failing) with a generous ``busy_timeout``, and every
   write is one short ``BEGIN IMMEDIATE`` transaction so lock holds stay
   in the microsecond range.
3. **Fork safety** — a sqlite connection must never cross ``fork()``;
   the store therefore holds only a *path* and opens its connection
   lazily, re-opening whenever it notices it lives in a new process.
4. **Dedup by natural key** — ``runs`` is unique on ``(fingerprint,
   experiment, run_index)`` and writes are UPSERTs that keep the
   original row id, so re-recording a run can never duplicate it nor
   orphan its epoch rows.

The read side (typed rows, aggregation, report) lives in
:mod:`repro.store.query`; this module keeps the connection and the
write verbs.
"""

from __future__ import annotations

import json
import math
import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .schema import (DDL, MIGRATABLE_VERSIONS, STORE_SCHEMA_VERSION,
                     TABLES, slo_hist_columns, split_experiment)

#: how long a writer waits for a competing writer before erroring (ms)
DEFAULT_BUSY_TIMEOUT_MS = 30_000


class StoreError(RuntimeError):
    """The store refused an operation (schema mismatch, bad payload)."""


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _to_db_value(value: Optional[float]) -> Optional[float]:
    """NaN/Inf -> NULL (sqlite REAL is finite-only in our contract)."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _from_db_value(value: Optional[float]) -> float:
    """NULL -> NaN, everything else verbatim (bitwise)."""
    return float("nan") if value is None else float(value)


class ExperimentStore:
    """One sqlite experiment database, safe to share across forks.

    The constructor is cheap (no I/O until first use) so a store object
    can be created in a parent process and used from forked workers —
    each process transparently gets its own connection.

    >>> store = ExperimentStore("/tmp/experiments.sqlite")
    >>> run_id = store.record_run("RT-GCN (T)@nasdaq-mini", "ab12cd",
    ...                           0, {"MRR": 0.41}, seed=0)
    """

    def __init__(self, path: Union[str, Path],
                 busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS):
        self.path = Path(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        """The calling process's connection (opened/migrated on demand)."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            # A connection inherited over fork() shares file descriptors
            # and WAL state with the parent; using it corrupts both.
            # Drop it without closing (closing would checkpoint the WAL
            # from the wrong process) and open a fresh one.
            self._conn = None
            conn = sqlite3.connect(self.path, timeout=self.busy_timeout_ms
                                   / 1000.0, isolation_level=None)
            conn.row_factory = sqlite3.Row
            conn.execute(f"PRAGMA busy_timeout = {self.busy_timeout_ms}")
            conn.execute("PRAGMA journal_mode = WAL")
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.execute("PRAGMA foreign_keys = ON")
            self._conn = conn
            self._conn_pid = pid
            self._ensure_schema(conn)
        return self._conn

    def close(self) -> None:
        """Close this process's connection (forked copies unaffected)."""
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_schema(self, conn: sqlite3.Connection) -> None:
        # executescript manages its own transaction (it commits any open
        # one first), so it must run outside _txn.  The DDL is idempotent
        # (CREATE ... IF NOT EXISTS), which doubles as the additive
        # migration path: opening an older, migratable file just creates
        # the tables it was missing and bumps the recorded version.
        conn.executescript(DDL)
        # v2 -> v3: the DDL cannot add columns to an existing slo table,
        # so the histogram columns are retrofitted explicitly.  The
        # PRAGMA guard makes this idempotent (and a no-op on fresh/v3
        # files).
        present = {row[1] for row in
                   conn.execute("PRAGMA table_info(slo)")}
        for column in slo_hist_columns():
            if column not in present:
                conn.execute(
                    f"ALTER TABLE slo ADD COLUMN {column} INTEGER")
        with self._txn(conn):
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(STORE_SCHEMA_VERSION)))
                return
            found = int(row["value"])
            if found == STORE_SCHEMA_VERSION:
                return
            if found in MIGRATABLE_VERSIONS:
                conn.execute(
                    "UPDATE meta SET value = ? WHERE key = "
                    "'schema_version'", (str(STORE_SCHEMA_VERSION),))
                return
            raise StoreError(
                f"{self.path} uses store schema version {found}, this "
                f"code expects {STORE_SCHEMA_VERSION} and can only "
                f"migrate from {MIGRATABLE_VERSIONS}; use a newer build "
                "or point at a fresh database")

    @contextmanager
    def _txn(self, conn: sqlite3.Connection):
        """One short IMMEDIATE transaction (queues behind other writers
        instead of deadlocking on a deferred-lock upgrade)."""
        if conn.in_transaction:
            # Nested use (e.g. _ensure_schema inside a caller's
            # transaction): join the enclosing transaction.
            yield
            return
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    @contextmanager
    def transaction(self):
        """Group several writes into one atomic commit."""
        with self._txn(self.connection):
            yield self

    # ------------------------------------------------------------------
    # write verbs
    # ------------------------------------------------------------------
    def record_config(self, fingerprint: str,
                      config: Optional[Dict[str, Any]] = None,
                      n_runs: Optional[int] = None,
                      base_seed: Optional[int] = None) -> None:
        """Register a protocol fingerprint (idempotent).

        A later call with a non-NULL ``config`` fills in a row that was
        first seen without one (e.g. migrated from a journal that only
        carried the digest), but never overwrites recorded values.
        """
        conn = self.connection
        config_json = (json.dumps(config, sort_keys=True, default=str)
                       if config is not None else None)
        with self._txn(conn):
            conn.execute(
                "INSERT INTO configs (fingerprint, config_json, n_runs,"
                " base_seed, created_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT (fingerprint) DO UPDATE SET"
                " config_json = COALESCE(configs.config_json,"
                "                        excluded.config_json),"
                " n_runs = COALESCE(configs.n_runs, excluded.n_runs),"
                " base_seed = COALESCE(configs.base_seed,"
                "                      excluded.base_seed)",
                (fingerprint, config_json, n_runs, base_seed, _utc_now()))

    def record_run(self, experiment: str, fingerprint: str,
                   run_index: int, metrics: Dict[str, float], *,
                   seed: Optional[int] = None,
                   train_seconds: Optional[float] = None,
                   test_seconds: Optional[float] = None,
                   kind: str = "experiment", source: str = "live",
                   epoch_losses: Optional[Sequence[float]] = None,
                   config: Optional[Dict[str, Any]] = None,
                   n_runs: Optional[int] = None,
                   base_seed: Optional[int] = None) -> int:
        """Record (or re-record) one completed run; returns its row id.

        The UPSERT keeps the existing row id on conflict, so epoch rows
        streamed earlier by a :class:`StoreCallback` under the same
        natural key stay attached.
        """
        conn = self.connection
        model, market = split_experiment(experiment)
        with self._txn(conn):
            self.record_config(fingerprint, config, n_runs, base_seed)
            cursor = conn.execute(
                "INSERT INTO runs (fingerprint, experiment, model, market,"
                " kind, run_index, seed, train_seconds, test_seconds,"
                " source, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT (fingerprint, experiment, run_index)"
                " DO UPDATE SET"
                " seed = COALESCE(excluded.seed, runs.seed),"
                " kind = excluded.kind,"
                " train_seconds = COALESCE(excluded.train_seconds,"
                "                          runs.train_seconds),"
                " test_seconds = COALESCE(excluded.test_seconds,"
                "                         runs.test_seconds),"
                " source = excluded.source"
                " RETURNING id",
                (fingerprint, experiment, model, market, kind,
                 int(run_index), seed, _to_db_value(train_seconds),
                 _to_db_value(test_seconds), source, _utc_now()))
            run_id = int(cursor.fetchone()["id"])
            conn.executemany(
                "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)"
                " ON CONFLICT (run_id, name)"
                " DO UPDATE SET value = excluded.value",
                [(run_id, str(name), _to_db_value(value))
                 for name, value in metrics.items()])
            if epoch_losses is not None:
                conn.executemany(
                    "INSERT INTO epochs (run_id, epoch, loss)"
                    " VALUES (?, ?, ?) ON CONFLICT (run_id, epoch)"
                    " DO UPDATE SET loss = excluded.loss",
                    [(run_id, epoch, _to_db_value(loss))
                     for epoch, loss in enumerate(epoch_losses)])
        return run_id

    def start_run(self, experiment: str, fingerprint: str,
                  run_index: int, *, seed: Optional[int] = None,
                  kind: str = "train", source: str = "live",
                  config: Optional[Dict[str, Any]] = None) -> int:
        """Create (or reuse) a run row before its metrics exist.

        The write-through path: ``StoreCallback`` opens the row when a
        fit starts so per-epoch losses have a parent to stream onto.
        """
        return self.record_run(experiment, fingerprint, run_index, {},
                               seed=seed, kind=kind, source=source,
                               config=config)

    def record_epoch(self, run_id: int, epoch: int,
                     loss: Optional[float]) -> None:
        """Stream one epoch's mean loss onto an open run row."""
        conn = self.connection
        with self._txn(conn):
            conn.execute(
                "INSERT INTO epochs (run_id, epoch, loss) VALUES (?, ?, ?)"
                " ON CONFLICT (run_id, epoch)"
                " DO UPDATE SET loss = excluded.loss",
                (int(run_id), int(epoch), _to_db_value(loss)))

    def record_checkpoint(self, path: Union[str, Path], *,
                          run_id: Optional[int] = None,
                          epoch: Optional[int] = None,
                          batch_index: Optional[int] = None,
                          size_bytes: Optional[int] = None,
                          write_seconds: Optional[float] = None,
                          is_best: bool = False) -> int:
        """Record one checkpoint write; returns the checkpoint row id."""
        conn = self.connection
        with self._txn(conn):
            cursor = conn.execute(
                "INSERT INTO checkpoints (run_id, path, epoch, batch_index,"
                " bytes, write_seconds, is_best, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?) RETURNING id",
                (run_id, str(path), epoch, batch_index, size_bytes,
                 _to_db_value(write_seconds), int(bool(is_best)),
                 _utc_now()))
            return int(cursor.fetchone()["id"])

    def record_report(self, report: Any, kind: Optional[str] = None,
                      report_id: Optional[str] = None) -> str:
        """Store a schema-v1 report (or any JSON document) as telemetry.

        ``report`` may be a :class:`repro.obs.RunReport` or a plain dict.
        Re-recording the same report id replaces the document instead of
        duplicating it, which is what makes migration idempotent.
        Returns the report id used.
        """
        payload = report.to_dict() if hasattr(report, "to_dict") else report
        if not isinstance(payload, dict):
            raise StoreError(f"telemetry report must be a dict or "
                             f"RunReport, got {type(report)}")
        rid = report_id or payload.get("run_id")
        if not rid:
            raise StoreError("telemetry report needs a run_id (or pass "
                             "report_id=...)")
        resolved_kind = kind or payload.get("kind") or "report"
        blob = json.dumps(payload, sort_keys=True, default=str,
                          allow_nan=False)
        conn = self.connection
        with self._txn(conn):
            conn.execute(
                "INSERT INTO telemetry (report_id, kind, report_json,"
                " created_at) VALUES (?, ?, ?, ?)"
                " ON CONFLICT (report_id) DO UPDATE SET"
                " kind = excluded.kind,"
                " report_json = excluded.report_json,"
                " created_at = excluded.created_at",
                (str(rid), str(resolved_kind), blob, _utc_now()))
        return str(rid)

    def record_slo(self, snapshot: Dict[str, Any], *,
                   source: str = "serve", op: Optional[str] = None,
                   report_id: Optional[str] = None) -> int:
        """Record one serving SLO evaluation window; returns its row id.

        ``snapshot`` is a :meth:`repro.serve.ServingTelemetry.snapshot`
        dict (or any dict with the same ``slo`` / ``latency_seconds`` /
        counter shape).  Telemetry without an ``slo`` block — no budget
        configured — still records the observed percentiles with a NULL
        target, so dashboards see the latency even before an SLO exists.

        Snapshots carrying a ``latency_hist_ms`` block (schema v3; every
        :class:`~repro.serve.ServingTelemetry` snapshot does) also fill
        the fixed-bucket histogram columns, from which ``db report``
        re-derives p50/p90/p99 across aggregated windows.  Older
        snapshot dicts without the block record NULLs — readers treat
        that as "histogram unknown", never as zero traffic.
        """
        slo = snapshot.get("slo") or {}
        latency = snapshot.get("latency_seconds") or {}
        hist = snapshot.get("latency_hist_ms") or {}

        def _ms(key: str) -> Optional[float]:
            if key in slo:
                return _to_db_value(slo[key])
            bare = key[len("observed_"):-len("_ms")] if key.startswith(
                "observed_") else key
            if bare in latency:
                return _to_db_value(float(latency[bare]) * 1000.0)
            return None

        within = slo.get("within")
        hist_columns = slo_hist_columns()
        hist_values = [None if hist.get(column) is None
                       else int(hist[column]) for column in hist_columns]
        conn = self.connection
        with self._txn(conn):
            cursor = conn.execute(
                "INSERT INTO slo (report_id, source, op, target_p99_ms,"
                " observed_p50_ms, observed_p95_ms, observed_p99_ms,"
                " requests, errors, shed, within, "
                + ", ".join(hist_columns) + ", created_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                + ", ".join("?" * len(hist_columns)) + ", ?)"
                " RETURNING id",
                (report_id, source, op,
                 _to_db_value(slo.get("target_p99_ms")),
                 _ms("observed_p50_ms"), _ms("observed_p95_ms"),
                 _ms("observed_p99_ms"),
                 int(snapshot.get("requests", 0)),
                 int(snapshot.get("errors", 0)),
                 int(snapshot.get("shed", 0)),
                 None if within is None else int(bool(within)),
                 *hist_values,
                 _utc_now()))
            return int(cursor.fetchone()["id"])

    # ------------------------------------------------------------------
    # dedup / lookup primitives (the typed layer is repro.store.query)
    # ------------------------------------------------------------------
    def completed_runs(self, fingerprint: str, experiment: str
                       ) -> Dict[int, "Any"]:
        """``run_index -> StoredRun`` for one (fingerprint, experiment).

        Rows created by :meth:`start_run` whose fit never finished carry
        no metrics; they are *not* returned, so dedup never skips a run
        that only half-happened.
        """
        from .query import query_runs

        return {run.run_index: run
                for run in query_runs(self, fingerprint=fingerprint,
                                      experiment=experiment)
                if run.metrics}

    def has_run(self, fingerprint: str, experiment: str,
                run_index: int) -> bool:
        return run_index in self.completed_runs(fingerprint, experiment)

    def counts(self) -> Dict[str, int]:
        """Row count per table (the ``db report`` headline numbers)."""
        conn = self.connection
        return {table: conn.execute(
                    f"SELECT COUNT(*) AS n FROM {table}").fetchone()["n"]
                for table in TABLES}

    def execute(self, sql: str, parameters: Iterable[Any] = ()
                ) -> List[sqlite3.Row]:
        """Escape hatch: run a read-only query and fetch all rows."""
        return list(self.connection.execute(sql, tuple(parameters)))


def as_store(store: Union[ExperimentStore, str, Path]) -> ExperimentStore:
    """``store`` itself, or a (lazily opened) store at that path."""
    return (store if isinstance(store, ExperimentStore)
            else ExperimentStore(store))
