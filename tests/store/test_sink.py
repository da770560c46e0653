"""Benchmark artifact records: sanitizing, speed records, envelopes."""

import math

from repro.store import bench_envelope, sanitize_payload, speed_record


class TestSanitize:
    def test_nan_inf_to_none(self):
        out = sanitize_payload({"a": float("nan"),
                                "b": [float("inf"), 1.0]})
        assert out == {"a": None, "b": [None, 1.0]}

    def test_numpy_scalars_coerced(self):
        import numpy as np
        out = sanitize_payload({"f": np.float64(2.5), "i": np.int64(3)})
        assert out == {"f": 2.5, "i": 3}
        assert isinstance(out["i"], int)


class TestSpeedRecord:
    def _measurement(self, name, train, test):
        from repro.eval.speed import SpeedMeasurement
        return SpeedMeasurement(name, train, test)

    def test_healthy_timing(self):
        entry = speed_record(self._measurement("m", 2.0, 0.5),
                             baseline=self._measurement("base", 4.0, 1.0))
        assert entry["train_speedup"] == 2.0
        assert not entry["degenerate_timing"]

    def test_degenerate_timing_flagged(self):
        entry = speed_record(self._measurement("m", 0.0, 0.5),
                             baseline=self._measurement("base", 4.0, 1.0))
        assert entry["degenerate_timing"]
        assert math.isnan(entry["train_speedup"])


class TestBenchEnvelope:
    def test_envelope_fields(self):
        from repro.obs import SCHEMA_VERSION
        env = bench_envelope("b", {"x": 1}, settings={"epochs": 2})
        assert env["schema_version"] == SCHEMA_VERSION
        assert env["benchmark"] == "b"
        assert env["settings"] == {"epochs": 2}
        assert env["x"] == 1
