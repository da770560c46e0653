"""ServingCluster: forked workers, shared weights, admission, crash retry.

These tests fork real worker processes and speak real HTTP, so they are
the slowest in the serve suite; they share the session-scoped checkpoint
fixture and keep request counts small.
"""

import asyncio
import json
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.parallel.pool import WorkerHandle
from repro.serve import ServeConfig, build
from repro.serve import cluster as cluster_module
from repro.serve.cluster import _WorkerDied, _WorkerLink
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="cluster mode needs fork + shared_memory")


@pytest.fixture(scope="module")
def cluster(serving_ckpt_dir):
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, mode="cluster", cluster_workers=2,
                               slo_p99_ms=1000.0, crash_retries=1,
                               watch_interval_s=30.0))
    handle.start()
    yield handle
    handle.close()


def _get(handle, path):
    host, port = handle.address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=60) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def _get_error(handle, path):
    host, port = handle.address
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=60)
    return err.value.code, dict(err.value.headers), json.load(err.value)


class TestClusterServing:
    def test_health_reports_both_workers(self, cluster):
        status, _, health = _get(cluster, "/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["mode"] == "cluster"
        assert health["alive"] == 2

    def test_scores_match_inprocess_engine_bitwise(self, cluster):
        _, _, body = _get(cluster, "/v1/scores")
        assert body["generation"] == 0
        engine = cluster.service.engine()
        expected = engine.scores(None)
        symbols = engine.dataset.universe.symbols
        got = np.array([body["scores"][s] for s in symbols])
        assert np.array_equal(got, expected)

    def test_top_k_and_rank(self, cluster):
        _, _, topk = _get(cluster, "/v1/top_k?k=3")
        assert [row["rank"] for row in topk["top_k"]] == [1, 2, 3]
        _, _, rank = _get(cluster, "/v1/rank")
        assert rank["ranking"][0]["rank"] == 1
        assert rank["ranking"][0]["symbol"] == topk["top_k"][0]["symbol"]

    def test_unversioned_path_is_not_found(self, cluster):
        status, headers, body = _get_error(cluster, "/scores")
        assert (status, body["error"]["code"]) == (404, "not_found")
        assert "Deprecation" not in headers

    @pytest.mark.parametrize("version", ["nope", "ckpt-e0000-b000000"])
    def test_unserved_version_is_not_found(self, cluster, version):
        # the workers hold only the served version's weights, even when
        # another archive exists in the directory
        status, _, body = _get_error(cluster, f"/v1/top_k?version={version}")
        assert (status, body["error"]["code"]) == (404, "not_found")
        assert "'best'" in body["error"]["message"]
        assert _get(cluster, "/v1/top_k?version=best")[2]["version"] == "best"

    def test_error_envelope_is_uniform(self, cluster):
        host, port = cluster.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"http://{host}:{port}/v1/top_k?k=zebra", timeout=60)
        body = json.load(err.value)
        assert err.value.code == 400
        assert set(body["error"]) >= {"code", "message", "retry_after"}
        assert body["error"]["code"] == "bad_request"

    def test_unknown_route_is_not_found(self, cluster):
        host, port = cluster.address
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"http://{host}:{port}/v1/nope",
                                   timeout=60)
        assert err.value.code == 404
        assert json.load(err.value)["error"]["code"] == "not_found"

    def test_stats_exposes_cluster_block_and_slo(self, cluster):
        _, _, stats = _get(cluster, "/v1/stats")
        assert stats["cluster"]["workers"] == 2
        assert stats["cluster"]["max_queue"] == 256
        assert stats["slo"]["target_p99_ms"] == 1000.0

    def test_stats_reports_frontend_cpu(self, cluster):
        first = _get(cluster, "/v1/stats")[2]["cluster"]["frontend_cpu_s"]
        for k in range(1, 21):
            _get(cluster, f"/v1/top_k?k={k}")
        second = _get(cluster, "/v1/stats")[2]["cluster"]["frontend_cpu_s"]
        assert 0.0 < first <= second

    def test_request_survives_worker_crash(self, cluster):
        victim = cluster.cluster._handles[0]
        victim.process.kill()
        victim.process.join(timeout=10)
        # crash_retries=1: when the dead worker's proxy pulls a request
        # it hits the closed pipe, respawns the worker, and requeues, so
        # every request is still answered.  Health is served by the
        # parent, so keep sending ranking requests until the dead proxy
        # drew one and respawned.
        deadline_alive = False
        for _ in range(50):
            status, _, body = _get(cluster, "/v1/scores")
            assert status == 200 and body["scores"]
            _, _, health = _get(cluster, "/v1/health")
            if health["alive"] == 2:
                deadline_alive = True
                break
        assert deadline_alive, "killed worker was never respawned"


# ----------------------------------------------------------------------
# admission: a stopped worker must cost requests, never the event loop
# ----------------------------------------------------------------------
@pytest.fixture
def stopped(serving_ckpt_dir):
    """A one-worker cluster whose worker is SIGSTOPped after a warm read."""
    handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                               port=0, mode="cluster", cluster_workers=1,
                               max_queue=2, default_timeout=0.5,
                               retry_after_s=0.25, watch_interval_s=30.0))
    handle.start()
    assert _get(handle, "/v1/top_k?k=1")[0] == 200
    pid = handle.cluster._handles[0].process.pid
    os.kill(pid, signal.SIGSTOP)
    try:
        yield handle, pid
    finally:
        os.kill(pid, signal.SIGCONT)
        handle.close()


class TestClusterAdmission:
    def test_stopped_worker_times_out_and_health_answers(self, stopped):
        handle, _ = stopped
        pending = []
        reader = threading.Thread(target=lambda: pending.append(
            _get_error(handle, "/v1/top_k?k=2")))
        reader.start()
        time.sleep(0.1)                   # the read is now at the worker
        start = time.monotonic()
        status, _, health = _get(handle, "/v1/health")
        assert time.monotonic() - start < 1.0
        assert (status, health["alive"]) == (200, 1)
        reader.join(timeout=10)
        assert not reader.is_alive()
        status, headers, body = pending[0]
        assert (status, body["error"]["code"]) == (503, "timeout")
        assert headers["Retry-After"] == "0.25"

    def test_queue_overflow_is_429(self, stopped):
        handle, _ = stopped
        # k=2 is held by the stopped worker; k=3 and k=4 fill the queue
        for k in (2, 3, 4):
            status, _, body = _get_error(handle, f"/v1/top_k?k={k}")
            assert (status, body["error"]["code"]) == (503, "timeout")
        status, headers, body = _get_error(handle, "/v1/top_k?k=5")
        assert (status, body["error"]["code"]) == (429, "overloaded")
        assert headers["Retry-After"] == "0.25"
        assert body["error"]["retry_after"] == 0.25

    def test_late_reply_is_not_served_to_the_next_read(self, stopped):
        handle, pid = stopped
        status, _, body = _get_error(handle, "/v1/top_k?k=2")
        assert (status, body["error"]["code"]) == (503, "timeout")
        os.kill(pid, signal.SIGCONT)
        status, _, body = _get(handle, "/v1/top_k?k=3")
        assert status == 200
        assert (body["k"], len(body["top_k"])) == (3, 3)


# ----------------------------------------------------------------------
# transport: the front-end's link against a real pipe and a fake worker
# ----------------------------------------------------------------------
def _write_all(fd, data):
    while data:
        data = data[os.write(fd, data):]


def _frame(obj):
    payload = pickle.dumps(obj)
    return struct.pack("!i", len(payload)) + payload


def _ask_fake(target):
    """``(reply, loop ticks)`` of one ask to a forked fake worker."""
    handle = WorkerHandle(multiprocessing.get_context("fork"), 0, target,
                          name_prefix="fake-serve-worker")

    async def main():
        ticks = 0

        async def tick():
            nonlocal ticks
            while True:
                await asyncio.sleep(0.01)
                ticks += 1

        link = await _WorkerLink.open(handle)
        ticker = asyncio.create_task(tick())
        try:
            return await link.ask(7, "top_k", {"k": "3"}), ticks
        finally:
            ticker.cancel()
            link.close()

    try:
        return asyncio.run(main())
    finally:
        handle.process.join(timeout=10)
        handle.close()


class TestWorkerLink:
    def test_reply_larger_than_the_pipe_buffer_arrives_intact(self):
        body = bytes(range(256)) * 4096          # 1 MiB, 16x the buffer

        def worker(slot, task_conn, event_conn):
            req_id, _, _ = task_conn.recv()
            event_conn.send((req_id, "ok", body))

        reply, _ = _ask_fake(worker)
        assert reply == ("ok", body)

    def test_half_written_reply_does_not_block_the_loop(self):
        body = b"x" * 200_000

        def worker(slot, task_conn, event_conn):
            req_id, _, _ = task_conn.recv()
            frame = _frame((req_id, "ok", body))
            _write_all(event_conn.fileno(), frame[:1000])
            time.sleep(0.5)
            _write_all(event_conn.fileno(), frame[1000:])

        reply, ticks = _ask_fake(worker)
        assert reply == ("ok", body)
        assert ticks >= 20, ticks        # the loop ran while it waited

    def test_stale_reply_is_skipped(self):
        def worker(slot, task_conn, event_conn):
            req_id, _, _ = task_conn.recv()
            event_conn.send((req_id - 1, "ok", b"stale"))
            event_conn.send((req_id, "ok", b"fresh"))

        assert _ask_fake(worker)[0] == ("ok", b"fresh")

    def test_half_frame_then_exit_is_a_dead_worker(self):
        def worker(slot, task_conn, event_conn):
            task_conn.recv()
            _write_all(event_conn.fileno(), struct.pack("!i", 1000) + b"half")
            os._exit(1)

        with pytest.raises(_WorkerDied):
            _ask_fake(worker)

    def test_half_frame_then_exit_respawns_and_retries(
            self, serving_ckpt_dir, tmp_path, monkeypatch):
        marker = tmp_path / "crashed"
        real = cluster_module._cluster_worker_main

        def flaky(slot, task_conn, event_conn, *args):
            if marker.exists():           # the respawned worker is real
                return real(slot, task_conn, event_conn, *args)
            marker.touch()
            task_conn.recv()
            _write_all(event_conn.fileno(), struct.pack("!i", 1000) + b"half")
            os._exit(1)

        monkeypatch.setattr(cluster_module, "_cluster_worker_main", flaky)
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0, mode="cluster", cluster_workers=1,
                                   crash_retries=1, watch_interval_s=30.0))
        handle.start()
        try:
            first = handle.cluster._handles[0].process.pid
            with pytest.warns(RuntimeWarning, match="respawning"):
                status, _, body = _get(handle, "/v1/top_k?k=3")
            assert status == 200 and len(body["top_k"]) == 3
            assert handle.cluster._handles[0].process.pid != first
        finally:
            handle.close()
