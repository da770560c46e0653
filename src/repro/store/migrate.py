"""Ingest the legacy result substrates into the experiment store.

Three on-disk formats predate the store, and each is detected by shape,
not by filename:

- **journal-v2** (``experiment-*.json``): ``{"version": 2, "key":
  {name, n_runs, base_seed, fingerprint}, "runs": [...]}`` — becomes
  ``configs`` + ``runs`` + ``metrics`` rows with ``source =
  'journal-v2'``;
- **schema-v1 reports** (``repro.obs`` ``<run_id>.json``): pool /
  serving / profile telemetry — becomes a ``telemetry`` row keyed by the
  report's ``run_id``;
- **bench artifacts** (``benchmarks/results/*.json``): the
  ``publish_result`` envelope (``schema_version`` + ``benchmark``) —
  becomes a ``telemetry`` row keyed by ``bench:<name>``.

Every insert is an UPSERT on the natural key, so migration is
idempotent: re-running it over the same directory changes nothing, and
a journal migrated twice still holds one row per run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from .db import ExperimentStore
from .schema import split_experiment


@dataclass
class MigrationStats:
    """What one migration pass ingested (and what it refused)."""

    journals: int = 0
    runs: int = 0
    reports: int = 0
    benches: int = 0
    skipped: List[str] = field(default_factory=list)

    def merge(self, other: "MigrationStats") -> None:
        self.journals += other.journals
        self.runs += other.runs
        self.reports += other.reports
        self.benches += other.benches
        self.skipped.extend(other.skipped)

    def to_dict(self) -> Dict[str, Any]:
        return {"journals": self.journals, "runs": self.runs,
                "reports": self.reports, "benches": self.benches,
                "skipped": list(self.skipped)}


def detect_format(payload: Any) -> Optional[str]:
    """``'journal-v2' | 'obs-report' | 'bench-json' | None`` by shape."""
    if not isinstance(payload, dict):
        return None
    if payload.get("version") == 2 and isinstance(payload.get("key"), dict):
        return "journal-v2"
    if "schema_version" in payload:
        if "benchmark" in payload:
            return "bench-json"
        if "run_id" in payload and "kind" in payload:
            return "obs-report"
    return None


def migrate_journal_payload(store: ExperimentStore,
                            payload: Dict[str, Any]) -> MigrationStats:
    """One parsed journal-v2 document into configs/runs/metrics rows."""
    stats = MigrationStats(journals=1)
    key = payload["key"]
    name = str(key.get("name", "unknown"))
    fingerprint = key.get("fingerprint")
    if not fingerprint:
        # Pre-fingerprint journals still need a stable natural key.
        import hashlib
        blob = json.dumps(key, sort_keys=True, default=str)
        fingerprint = ("journal-"
                       + hashlib.sha256(blob.encode()).hexdigest()[:16])
    fields = payload.get("fingerprint_fields")
    config = fields.get("config") if isinstance(fields, dict) else None
    with store.transaction():
        store.record_config(fingerprint, config,
                            n_runs=key.get("n_runs"),
                            base_seed=key.get("base_seed"))
        for row in payload.get("runs", []):
            run_index = int(row["run_index"])
            base_seed = key.get("base_seed")
            seed = (base_seed * 1000 + run_index
                    if base_seed is not None else None)
            store.record_run(
                name, fingerprint, run_index,
                {k: float(v) for k, v in row.get("metrics", {}).items()},
                seed=seed,
                train_seconds=row.get("train_seconds"),
                test_seconds=row.get("test_seconds"),
                source="journal-v2", config=config,
                n_runs=key.get("n_runs"), base_seed=base_seed)
            stats.runs += 1
    return stats


def migrate_file(store: ExperimentStore, path: Union[str, Path]
                 ) -> MigrationStats:
    """Ingest one JSON file, dispatching on its detected format."""
    path = Path(path)
    stats = MigrationStats()
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        stats.skipped.append(f"{path}: unreadable ({exc})")
        return stats
    fmt = detect_format(payload)
    if fmt == "journal-v2":
        stats.merge(migrate_journal_payload(store, payload))
    elif fmt == "obs-report":
        store.record_report(payload)
        stats.reports += 1
    elif fmt == "bench-json":
        store.record_report(payload, kind="benchmark",
                            report_id=f"bench:{payload['benchmark']}")
        stats.benches += 1
    else:
        stats.skipped.append(f"{path}: unrecognized format")
    return stats


def migrate(store: ExperimentStore,
            sources: Iterable[Union[str, Path]]) -> MigrationStats:
    """Ingest files and/or directories (directories scan ``*.json``,
    non-recursively) into ``store``; returns cumulative stats."""
    stats = MigrationStats()
    for source in sources:
        source = Path(source)
        if source.is_dir():
            for path in sorted(source.glob("*.json")):
                stats.merge(migrate_file(store, path))
        elif source.exists():
            stats.merge(migrate_file(store, source))
        else:
            stats.skipped.append(f"{source}: does not exist")
    return stats
