"""Migration: legacy JSON substrates round-trip into the store."""

import json

import pytest

from repro.baselines import get_spec
from repro.core import TrainConfig
from repro.eval import run_named_experiment
from repro.store import (ExperimentStore, detect_format, migrate,
                         migrate_file, query_runs)


def quick_config(**overrides):
    defaults = dict(window=6, epochs=1, max_train_days=8, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "migrated.sqlite")


class TestDetectFormat:
    def test_journal_v2(self):
        assert detect_format({"version": 2, "key": {}}) == "journal-v2"

    def test_obs_report(self):
        assert detect_format({"schema_version": 1, "run_id": "r",
                              "kind": "parallel"}) == "obs-report"

    def test_bench_json(self):
        assert detect_format({"schema_version": 1,
                              "benchmark": "speed"}) == "bench-json"

    def test_unknown(self):
        assert detect_format({"hello": 1}) is None
        assert detect_format([1, 2]) is None


def write_journal(directory, name, config, n_runs, base_seed, runs):
    """A journal-v2 document as the protocol used to write it."""
    from dataclasses import asdict

    from repro.eval.protocol import _experiment_fingerprint

    directory.mkdir(exist_ok=True)
    path = directory / f"experiment-{name}.json"
    path.write_text(json.dumps({
        "version": 2,
        "key": {"name": name, "n_runs": n_runs, "base_seed": base_seed,
                "fingerprint": _experiment_fingerprint(config, n_runs,
                                                       base_seed)},
        "runs": [{"run_index": index, "metrics": metrics,
                  "train_seconds": 1.0, "test_seconds": 0.1}
                 for index, metrics in enumerate(runs)],
        "fingerprint_fields": {"config": asdict(config), "n_runs": n_runs,
                               "base_seed": base_seed}}, indent=2))
    return path


class TestJournalRoundTrip:
    def test_live_journal_migrates_bitwise(self, nasdaq_mini, tmp_path,
                                           store):
        """A journal of live protocol runs migrates into rows whose
        metrics equal the in-memory result bitwise."""
        journal_dir = tmp_path / "journals"
        cfg = quick_config()
        result = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                      n_runs=2, workers=1)
        write_journal(journal_dir, "Rank_LSTM",
                      get_spec("Rank_LSTM").adapt_config(cfg), 2, 0,
                      result.runs)
        stats = migrate(store, [journal_dir])
        assert stats.journals == 1 and stats.runs == 2
        runs = query_runs(store, source="journal-v2")
        assert [run.metrics for run in runs] == result.runs
        # The journal carried fingerprint_fields, so the migrated config
        # is queryable too.
        configs = store.execute("SELECT config_json FROM configs")
        assert json.loads(configs[0]["config_json"])["window"] == 6

    def test_migrated_fingerprint_matches_live(self, nasdaq_mini,
                                               tmp_path, store):
        """Migrated journal rows dedup against live store runs: the
        fingerprints are the same digest."""
        journal_dir = tmp_path / "journals"
        cfg = quick_config()
        expected = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                        n_runs=2, workers=1)
        write_journal(journal_dir, "Rank_LSTM",
                      get_spec("Rank_LSTM").adapt_config(cfg), 2, 0,
                      expected.runs)
        migrate(store, [journal_dir])
        # A store-backed re-run of the same protocol restores the
        # migrated rows instead of executing.
        result = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                      n_runs=2, workers=1,
                                      store=store.path)
        assert len(query_runs(store)) == 2    # nothing new was written
        assert result.runs == expected.runs
        assert result.last_result is None     # every run was restored

    def test_pre_fingerprint_journal_gets_fallback_key(self, tmp_path,
                                                       store):
        path = tmp_path / "experiment-old.json"
        path.write_text(json.dumps({
            "version": 2,
            "key": {"name": "old", "n_runs": 1, "base_seed": 0},
            "runs": [{"run_index": 0, "metrics": {"MRR": 0.5},
                      "train_seconds": 1.0, "test_seconds": 0.1}]}))
        stats = migrate_file(store, path)
        assert stats.runs == 1
        run = query_runs(store)[0]
        assert run.fingerprint.startswith("journal-")

    def test_idempotent(self, tmp_path, store):
        path = tmp_path / "experiment-x.json"
        path.write_text(json.dumps({
            "version": 2,
            "key": {"name": "x", "n_runs": 1, "base_seed": 0,
                    "fingerprint": "abc"},
            "runs": [{"run_index": 0, "metrics": {"MRR": 0.5},
                      "train_seconds": 1.0, "test_seconds": 0.1}]}))
        migrate(store, [path])
        migrate(store, [path])
        assert store.counts()["runs"] == 1
        assert store.counts()["metrics"] == 1


class TestOtherFormats:
    def test_obs_report_and_bench_ingest(self, tmp_path, store):
        from repro.obs import RunReport
        report = RunReport(run_id="pool-1", kind="parallel", config={},
                           epoch_losses=[], phases={}, ops=[],
                           metrics={"utilization_mean": 0.9})
        (tmp_path / "pool-1.json").write_text(
            json.dumps(report.to_dict()))
        (tmp_path / "speed.json").write_text(json.dumps(
            {"schema_version": 1, "benchmark": "speed", "x": 1}))
        (tmp_path / "junk.json").write_text(json.dumps({"n": 1}))
        (tmp_path / "broken.json").write_text("{not json")
        stats = migrate(store, [tmp_path])
        assert stats.reports == 1 and stats.benches == 1
        assert len(stats.skipped) == 2
        assert store.counts()["telemetry"] == 2

    def test_missing_source_reported_not_fatal(self, store, tmp_path):
        stats = migrate(store, [tmp_path / "nope"])
        assert stats.skipped and "does not exist" in stats.skipped[0]
