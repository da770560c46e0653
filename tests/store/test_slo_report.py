"""Per-endpoint SLO rows: the ``op`` column through store and report.

``record_slo(op=...)`` writes one row per endpoint next to the
aggregate (op NULL) window; ``store_report`` groups the slo table per
(source, op) and ``db report`` prints the section.
"""

import json

import pytest

from repro.cli import main
from repro.store import ExperimentStore
from repro.store.query import store_report


def snapshot(requests, p99_s, target_ms=None):
    snap = {"requests": requests, "errors": 0, "shed": 0,
            "latency_seconds": {"p50": p99_s / 2, "p95": p99_s * 0.9,
                                "p99": p99_s}}
    if target_ms is not None:
        snap["slo"] = {"target_p99_ms": target_ms,
                       "observed_p99_ms": p99_s * 1000.0,
                       "within": p99_s * 1000.0 <= target_ms}
    return snap


class TestRecordSloOp:
    def test_op_column_round_trips(self, tmp_path):
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            store.record_slo(snapshot(10, 0.02, target_ms=50.0),
                             source="serve-cluster")
            store.record_slo(snapshot(6, 0.01, target_ms=50.0),
                             source="serve-cluster", op="scores")
            store.record_slo(snapshot(4, 0.03, target_ms=50.0),
                             source="serve-cluster", op="ingest")
            rows = store.execute(
                "SELECT op, requests FROM slo ORDER BY op")
            assert [(r["op"], r["requests"]) for r in rows] == [
                (None, 10), ("ingest", 4), ("scores", 6)]

    def test_bare_percentiles_scale_to_ms(self, tmp_path):
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            store.record_slo(snapshot(3, 0.25), source="stream-client",
                             op="ingest")
            row = store.execute("SELECT * FROM slo")[0]
            assert row["observed_p99_ms"] == pytest.approx(250.0)
            assert row["target_p99_ms"] is None
            assert row["within"] is None


class TestStoreReportSloSection:
    def test_groups_per_source_and_op(self, tmp_path):
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            for _ in range(2):
                store.record_slo(snapshot(5, 0.02, target_ms=100.0),
                                 source="serve-cluster", op="ingest")
            store.record_slo(snapshot(9, 0.01, target_ms=100.0),
                             source="serve-cluster", op="scores")
            store.record_slo(snapshot(7, 0.5), source="stream-client",
                             op="ingest")
            payload = store_report(store)
        slo = payload["slo"]
        assert [(r["source"], r["op"]) for r in slo] == [
            ("serve-cluster", "ingest"), ("serve-cluster", "scores"),
            ("stream-client", "ingest")]
        ingest = slo[0]
        assert ingest["windows"] == 2
        assert ingest["requests"] == 10
        assert ingest["all_within"] == 1

    def test_all_within_is_min_over_windows(self, tmp_path):
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            store.record_slo(snapshot(1, 0.01, target_ms=100.0),
                             source="serve", op="rank")
            store.record_slo(snapshot(1, 0.5, target_ms=100.0),
                             source="serve", op="rank")
            payload = store_report(store)
        assert payload["slo"][0]["all_within"] == 0

    def test_empty_slo_table_gives_empty_section(self, tmp_path):
        with ExperimentStore(tmp_path / "exp.sqlite") as store:
            payload = store_report(store)
        assert payload["slo"] == []


class TestDbReportCLI:
    def test_report_prints_slo_section(self, tmp_path, capsys):
        db = tmp_path / "exp.sqlite"
        with ExperimentStore(db) as store:
            store.record_slo(snapshot(12, 0.02, target_ms=200.0),
                             source="serve-cluster", op="ingest")
        assert main(["db", "--db", str(db), "report"]) == 0
        out = capsys.readouterr().out
        assert "slo (per source" in out
        assert "ingest" in out
        assert "serve-cluster" in out

    def test_report_json_includes_slo(self, tmp_path, capsys):
        db = tmp_path / "exp.sqlite"
        with ExperimentStore(db) as store:
            store.record_slo(snapshot(3, 0.01), source="stream-client",
                             op="ingest")
        assert main(["db", "--db", str(db), "report", "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"][0]["source"] == "stream-client"
        assert payload["slo"][0]["op"] == "ingest"

    def test_report_without_slo_rows_omits_section(self, tmp_path,
                                                   capsys):
        db = tmp_path / "exp.sqlite"
        with ExperimentStore(db) as store:
            store.counts()               # force schema creation on disk
        assert main(["db", "--db", str(db), "report"]) == 0
        assert "slo (per source" not in capsys.readouterr().out
