"""`repro.cli stream`: scenario replay against a live server + dedup.

Runs the real CLI entry point against a cluster started in-process, so
the whole loop — scenario adaptation to the served universe, per-day
POSTs, store recording, fingerprint dedup — is exercised end to end.
"""

import json
import urllib.request

import pytest

from repro.cli import main
from repro.data import get_scenario
from repro.graph import reset_adjacency_cache
from repro.serve import ServeConfig, build
from repro.store import ExperimentStore


@pytest.fixture(autouse=True)
def fresh_cache():
    yield reset_adjacency_cache()
    reset_adjacency_cache()


@pytest.fixture
def served(serving_ckpt_dir):
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0))
    handle.start()
    host, port = handle.address
    try:
        yield handle, host, port
    finally:
        handle.close()


class TestStreamReplayCLI:
    def test_replay_records_report_and_slo(self, served, tmp_path,
                                           capsys):
        handle, host, port = served
        db = tmp_path / "exp.sqlite"
        rc = main(["stream", "--scenario", "smoke", "--host", host,
                   "--port", str(port), "--store", str(db)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 tick(s)" in out
        assert "0 fallback(s)" in out

        with urllib.request.urlopen(
                f"http://{host}:{port}/v1/scores", timeout=30) as resp:
            universe = len(json.load(resp)["scores"])
        fingerprint = get_scenario(
            "smoke", num_stocks=universe).fingerprint()
        report_id = f"stream-{fingerprint[:16]}"
        assert report_id in out

        with ExperimentStore(db) as store:
            telemetry = store.execute(
                "SELECT kind, report_id FROM telemetry")
            assert [(r["kind"], r["report_id"]) for r in telemetry] == [
                ("stream", report_id)]
            slo = store.execute(
                "SELECT source, op, requests FROM slo"
                " WHERE source = 'stream-client'")
            assert len(slo) == 1
            assert slo[0]["op"] == "ingest"
            assert slo[0]["requests"] == 12

    def test_second_replay_dedups_by_fingerprint(self, served, tmp_path,
                                                 capsys):
        handle, host, port = served
        db = tmp_path / "exp.sqlite"
        args = ["stream", "--scenario", "smoke", "--host", host,
                "--port", str(port), "--store", str(db)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "already replayed" in out
        # still exactly one recorded replay
        with ExperimentStore(db) as store:
            assert store.execute(
                "SELECT COUNT(*) AS n FROM telemetry")[0]["n"] == 1

    def test_no_dedup_forces_rerun(self, served, tmp_path, capsys):
        handle, host, port = served
        db = tmp_path / "exp.sqlite"
        args = ["stream", "--scenario", "smoke", "--host", host,
                "--port", str(port), "--store", str(db)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-dedup"]) == 0
        out = capsys.readouterr().out
        assert "already replayed" not in out
        assert "tick(s)" in out
        with ExperimentStore(db) as store:
            # report UPSERTs on report_id, so still one telemetry row,
            # but a second stream-client slo window was appended
            assert store.execute(
                "SELECT COUNT(*) AS n FROM telemetry")[0]["n"] == 1
            slo = store.execute(
                "SELECT COUNT(*) AS n FROM slo"
                " WHERE source = 'stream-client'")
            assert slo[0]["n"] == 2

    def test_seed_override_changes_fingerprint(self, served, tmp_path,
                                               capsys):
        handle, host, port = served
        db = tmp_path / "exp.sqlite"
        base = ["stream", "--scenario", "smoke", "--host", host,
                "--port", str(port), "--store", str(db)]
        assert main(base) == 0
        assert main(base + ["--seed", "42"]) == 0
        capsys.readouterr()
        with ExperimentStore(db) as store:
            assert store.execute(
                "SELECT COUNT(*) AS n FROM telemetry")[0]["n"] == 2

    def test_unreachable_server_exits_with_message(self, tmp_path):
        with pytest.raises(SystemExit, match="stream failed"):
            main(["stream", "--scenario", "smoke", "--host", "127.0.0.1",
                  "--port", "1", "--timeout", "2"])
