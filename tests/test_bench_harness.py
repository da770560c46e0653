"""The benchmark harness's telemetry publishing.

``benchmarks/`` is not on the import path of the tier-1 suite, so the
harness module is loaded by file location.  These tests pin the NaN
contract of ``publish_result`` — degenerate measurements must surface as
explicit ``null`` + ``degenerate_timing`` flags in the artifact, never as
bare ``NaN`` tokens (not JSON) and never silently dropped — and the
optional tee into the experiment store.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.eval.speed import SpeedMeasurement
from repro.store import sanitize_payload, speed_record

_HARNESS_PATH = (Path(__file__).resolve().parents[1]
                 / "benchmarks" / "_harness.py")


@pytest.fixture()
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_harness_under_test",
                                                  _HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


def _strict_load(path):
    """Parse rejecting the non-JSON NaN/Infinity tokens."""
    def refuse(token):
        raise AssertionError(f"bare {token} token in published JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestDatasetCache:
    def test_cache_keyed_by_market_and_seed(self, harness):
        """A seed override must not be served another seed's dataset."""
        default = harness.bench_dataset("csi-mini")
        same = harness.bench_dataset("csi-mini")
        assert same is default                        # cached
        other = harness.bench_dataset("csi-mini", seed=1234)
        assert other is not default
        assert not np.array_equal(default.simulated.prices,
                                  other.simulated.prices)
        # The explicit session seed and the default hit the same entry.
        assert harness.bench_dataset("csi-mini",
                                     seed=harness.BENCH_SEED) is default

    def test_bench_workers_default(self, harness):
        assert harness.BENCH_WORKERS == 1   # opt-in via RTGCN_BENCH_WORKERS


class TestSanitizeJson:
    def test_nan_and_inf_become_null(self):
        payload = {"a": float("nan"), "b": float("inf"),
                   "c": [1.0, float("-inf"), {"d": float("nan")}]}
        out = sanitize_payload(payload)
        assert out == {"a": None, "b": None, "c": [1.0, None, {"d": None}]}

    def test_numpy_scalars_coerced(self):
        out = sanitize_payload({"f": np.float64(2.5),
                                     "i": np.int64(3),
                                     "nan": np.float64("nan")})
        assert out == {"f": 2.5, "i": 3, "nan": None}
        json.dumps(out, allow_nan=False)   # round-trips strictly

    def test_finite_values_untouched(self):
        payload = {"x": 1.25, "s": "text", "n": None, "l": [1, 2]}
        assert sanitize_payload(payload) == payload


class TestPublishJson:
    def test_nan_payload_becomes_null_not_dropped(self, harness):
        path = harness.publish_result(
            "t", {"speedup": float("nan"), "seconds": 1.5})
        data = _strict_load(path)
        assert "speedup" in data          # key survives ...
        assert data["speedup"] is None    # ... as an explicit null
        assert data["seconds"] == 1.5
        assert data["benchmark"] == "t"
        assert "schema_version" in data

    def test_nested_nan_sanitized(self, harness):
        path = harness.publish_result(
            "t", {"models": {"m": {"train_speedup": float("inf")}}})
        assert _strict_load(path)["models"]["m"]["train_speedup"] is None


class TestSpeedEntry:
    def test_healthy_measurement(self):
        ours = SpeedMeasurement("ours", 0.5, 0.1)
        base = SpeedMeasurement("base", 2.0, 0.3)
        entry = speed_record(ours, baseline=base)
        assert entry["degenerate_timing"] is False
        assert entry["train_speedup"] == pytest.approx(4.0)
        assert entry["speedup_over"] == "base"

    def test_degenerate_timing_flagged_not_hidden(self, harness):
        ours = SpeedMeasurement("ours", 0.0, 0.1)   # below timer resolution
        base = SpeedMeasurement("base", 2.0, 0.3)
        entry = speed_record(ours, baseline=base)
        assert entry["degenerate_timing"] is True
        assert math.isnan(entry["train_speedup"])
        # Published, the NaN becomes an explicit null under its key.
        path = harness.publish_result("t", {"entry": entry})
        published = _strict_load(path)["entry"]
        assert published["train_speedup"] is None
        assert published["degenerate_timing"] is True

    def test_degenerate_baseline_flagged(self):
        ours = SpeedMeasurement("ours", 1.0, 0.1)
        base = SpeedMeasurement("base", 0.0, 0.3)
        entry = speed_record(ours, baseline=base)
        assert entry["degenerate_timing"] is True

    def test_no_baseline_keeps_raw_timings(self):
        entry = speed_record(SpeedMeasurement("m", 1.0, 0.25))
        assert entry == {"name": "m", "train_seconds_per_epoch": 1.0,
                         "test_seconds": 0.25, "phases": {},
                         "degenerate_timing": False}


class TestBenchStoreTee:
    def test_publish_result_tees_into_store(self, harness, tmp_path,
                                            monkeypatch):
        from repro.store import ExperimentStore
        db = tmp_path / "bench.sqlite"
        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(harness, "BENCH_STORE", str(db))
        path = harness.publish_result("speed", {"x": 1})
        assert path == tmp_path / "results" / "speed.json"
        # A re-run replaces the row, as rewriting the file replaces it.
        harness.publish_result("speed", {"x": 2})
        store = ExperimentStore(db)
        rows = store.execute(
            "SELECT report_id, kind, report_json FROM telemetry")
        assert [(r["report_id"], r["kind"]) for r in rows] == [
            ("bench:speed", "benchmark")]
        assert json.loads(rows[0]["report_json"]) == _strict_load(path)
