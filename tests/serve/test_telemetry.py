"""ServingTelemetry: percentile rollups, histograms, schema-v1 reports."""

import json
import threading

from repro.obs.metrics import validate_report
from repro.serve import ServingTelemetry


class TestRecording:
    def test_latency_percentiles_ordered(self):
        telemetry = ServingTelemetry()
        for ms in range(1, 101):
            telemetry.record_request("top_k", ms / 1000.0)
        latency = telemetry.snapshot()["latency_seconds"]
        assert latency["count"] == 100
        assert latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]
        assert abs(latency["p50"] - 0.0505) < 0.002

    def test_errors_and_fallbacks_counted(self):
        telemetry = ServingTelemetry()
        telemetry.record_request("scores", 0.01, fallback=True)
        telemetry.record_error("scores")
        snap = telemetry.snapshot()
        assert snap["fallbacks"] == 1 and snap["errors"] == 1
        assert snap["ops"] == {"scores": 2}

    def test_sample_window_bounded(self):
        telemetry = ServingTelemetry(max_samples=10)
        for i in range(50):
            telemetry.record_request("op", float(i))
        assert telemetry.snapshot()["latency_seconds"]["count"] == 10

    def test_thread_safe_recording(self):
        telemetry = ServingTelemetry()
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(timeout=10.0)
            for _ in range(500):
                telemetry.record_request("op", 0.001, queue_depth=1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert telemetry.snapshot()["requests"] == 8 * 500


class TestSchemaV1Report:
    def test_report_validates_and_serializes(self):
        telemetry = ServingTelemetry()
        telemetry.record_request("top_k", 0.005, queue_depth=2)
        report = telemetry.report(config={"market": "csi-mini"})
        payload = report.to_dict()
        validate_report(payload)               # schema-v1 contract
        assert payload["kind"] == "serving"
        assert payload["metrics"]["requests"] == 1.0
        assert payload["metrics"]["latency_p50_seconds"] == 0.005
        assert payload["config"]["market"] == "csi-mini"
        serving = payload["config"]["serving"]
        assert serving["per_op"]["top_k"]["requests"] == 1
        assert serving["queue_depth"]["max"] == 2
        json.dumps(payload)                    # JSON-serializable end-to-end

    def test_run_id_generated_with_serve_prefix(self):
        report = ServingTelemetry().report()
        assert report.run_id.startswith("serve")
