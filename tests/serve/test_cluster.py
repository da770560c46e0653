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
import shutil
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
from repro.serve.engine import InferenceEngine
from repro.serve.registry import build_servable
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
        # drew one and respawned.  Each read is a key the reply memo has
        # not seen (the worker ignores ``k`` on ``scores``), so every one
        # is queued for a worker.
        deadline_alive = False
        for attempt in range(50):
            status, _, body = _get(cluster, f"/v1/scores?k={attempt}")
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

    def test_identical_reads_share_one_queue_entry(self, serving_ckpt_dir):
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0, mode="cluster", cluster_workers=1,
                                   max_queue=2, default_timeout=30.0,
                                   watch_interval_s=30.0))
        handle.start()
        pid = handle.cluster._handles[0].process.pid
        inflight = handle.cluster._inflight
        n = 6
        replies, readers = [], []
        try:
            assert _get(handle, "/v1/top_k?k=1")[0] == 200
            os.kill(pid, signal.SIGSTOP)
            # k=3 is held by the stopped worker; the k=2 reads then wait
            readers.append(threading.Thread(target=lambda: replies.append(
                _get(handle, "/v1/top_k?k=3"))))
            readers[0].start()
            deadline = time.monotonic() + 10
            while (("top_k", (("k", "3"),)) not in inflight
                   or _get(handle, "/v1/stats")[2]["cluster"]["queue_depth"]):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for _ in range(n):
                readers.append(threading.Thread(target=lambda: replies.append(
                    _get(handle, "/v1/top_k?k=2"))))
                readers[-1].start()
            key = ("top_k", (("k", "2"),))
            while len(inflight.get(key, ())) < n:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stats = _get(handle, "/v1/stats")[2]["cluster"]
            assert stats["queue_depth"] == 1
        finally:
            os.kill(pid, signal.SIGCONT)
            for reader in readers:
                reader.join(timeout=30)
            handle.close()
        assert [status for status, _, _ in replies] == [200] * (n + 1)
        bodies = [body for _, _, body in replies if body["k"] == 2]
        assert len(bodies) == n
        assert all(body == bodies[0] for body in bodies)

    def test_late_reply_is_not_served_to_the_next_read(self, stopped):
        handle, pid = stopped
        status, _, body = _get_error(handle, "/v1/top_k?k=2")
        assert (status, body["error"]["code"]) == (503, "timeout")
        os.kill(pid, signal.SIGCONT)
        status, _, body = _get(handle, "/v1/top_k?k=3")
        assert status == 200
        assert (body["k"], len(body["top_k"])) == (3, 3)


# ----------------------------------------------------------------------
# reply memo: a repeated read is answered on the front-end's loop
# ----------------------------------------------------------------------
def _get_raw(handle, path):
    host, port = handle.address
    with urllib.request.urlopen(f"http://{host}:{port}{path}",
                                timeout=60) as resp:
        return resp.status, resp.read()


def _reload(handle):
    host, port = handle.address
    request = urllib.request.Request(f"http://{host}:{port}/v1/reload",
                                     data=b"", method="POST")
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.load(resp)


def _memo_stats(handle):
    return _get(handle, "/v1/stats")[2]["cluster"]["memo"]


@pytest.fixture
def solo(serving_ckpt_dir, tmp_path):
    """A one-worker cluster on a private copy of the trained checkpoint."""
    directory = tmp_path / "ckpts"
    directory.mkdir()
    shutil.copy(serving_ckpt_dir / "best.npz", directory / "best.npz")
    handle = build(ServeConfig(checkpoint_dir=str(directory), port=0,
                               cluster_workers=1, watch_interval_s=0.2))
    handle.start()
    yield handle, directory
    handle.close()


class TestReplyMemo:
    def test_repeat_is_the_first_reply_without_a_worker(self, stopped):
        handle, pid = stopped
        os.kill(pid, signal.SIGCONT)
        first = _get_raw(handle, "/v1/top_k?k=7")
        os.kill(pid, signal.SIGSTOP)
        hits = _memo_stats(handle)["hits"]
        # a read queued for the stopped worker would be a 503 in 0.5 s
        assert _get_raw(handle, "/v1/top_k?k=7") == first
        assert first[0] == 200
        assert _memo_stats(handle)["hits"] == hits + 1

    @pytest.mark.parametrize("promote", ["reload", "watcher"])
    def test_new_generation_retires_the_memo(self, solo, serving_ckpt_dir,
                                             promote):
        handle, directory = solo
        first = _get(handle, "/v1/scores")[2]
        assert first["generation"] == 0
        assert _get(handle, "/v1/scores")[2] == first
        staged = directory / "staged.tmp"
        shutil.copy(serving_ckpt_dir / "ckpt-e0000-b000000.npz", staged)
        os.replace(staged, directory / "best.npz")
        if promote == "reload":
            assert _reload(handle)["generation"] > 0
        deadline = time.monotonic() + 30
        body = first
        while body["generation"] == 0:
            assert time.monotonic() < deadline, "no new generation served"
            time.sleep(0.05)
            body = _get(handle, "/v1/scores")[2]
        engine = InferenceEngine(build_servable(directory / "best.npz",
                                                "best"))
        expected = engine.scores(None)
        got = np.array([body["scores"][s]
                        for s in engine.dataset.universe.symbols])
        assert np.array_equal(got, expected)
        assert body["scores"] != first["scores"]

    def test_old_generation_reply_is_handed_out_not_kept(
            self, serving_ckpt_dir, monkeypatch):
        # a worker that never adopts a new generation (as after a
        # refused adoption) answers every read on generation 0
        monkeypatch.setattr(cluster_module, "_sync_weights",
                            lambda reader, engine: False)
        handle = build(ServeConfig(checkpoint_dir=str(serving_ckpt_dir),
                                   port=0, cluster_workers=1,
                                   watch_interval_s=30.0))
        handle.start()
        try:
            assert _get(handle, "/v1/top_k?k=4")[2]["generation"] == 0
            assert _reload(handle)["generation"] == 1
            before = _memo_stats(handle)
            for _ in range(2):
                status, _, body = _get(handle, "/v1/top_k?k=4")
                assert (status, body["generation"], body["k"]) == (200, 0, 4)
            after = _memo_stats(handle)
        finally:
            handle.close()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 2
        assert after["entries"] == before["entries"] - 1

    def test_bad_request_is_never_kept(self, solo):
        handle, _ = solo
        before = _memo_stats(handle)
        for _ in range(2):
            status, _, body = _get_error(handle, "/v1/top_k?k=0")
            assert (status, body["error"]["code"]) == (400, "bad_request")
        after = _memo_stats(handle)
        assert (after["entries"], after["hits"]) \
            == (before["entries"], before["hits"])
        assert after["misses"] == before["misses"] + 2

    def test_timeout_is_never_kept(self, stopped):
        handle, pid = stopped
        entries = _memo_stats(handle)["entries"]
        status, _, body = _get_error(handle, "/v1/top_k?k=2")
        assert (status, body["error"]["code"]) == (503, "timeout")
        assert _memo_stats(handle)["entries"] == entries
        os.kill(pid, signal.SIGCONT)
        status, _, body = _get(handle, "/v1/top_k?k=2")
        assert (status, body["k"]) == (200, 2)

    def test_refusals_run_before_the_lookup(self, solo):
        handle, _ = solo
        path = "/v1/top_k?k=3&version=best"
        assert _get(handle, path)[0] == _get(handle, path)[0] == 200
        assert _memo_stats(handle)["hits"] == 1
        status, _, body = _get_error(handle, "/v1/top_k?version=nope&k=3")
        assert (status, body["error"]["code"]) == (404, "not_found")
        worker = handle.cluster._handles[0].process
        worker.kill()
        worker.join(timeout=10)
        status, _, body = _get_error(handle, path)
        assert (status, body["error"]["code"]) == (503, "unavailable")
        assert _memo_stats(handle)["hits"] == 1

    def test_hits_count_as_reads_in_stats(self, solo):
        handle, _ = solo
        assert _get(handle, "/v1/top_k?k=5")[0] == 200
        before = _get(handle, "/v1/stats")[2]
        for _ in range(5):
            assert _get(handle, "/v1/top_k?k=5")[0] == 200
        after = _get(handle, "/v1/stats")[2]
        assert (after["cluster"]["memo"]["hits"]
                - before["cluster"]["memo"]["hits"]) == 5
        top_k = (after["per_op"]["top_k"], before["per_op"]["top_k"])
        assert top_k[0]["requests"] - top_k[1]["requests"] == 5
        assert (top_k[0]["latency_seconds"]["count"]
                - top_k[1]["latency_seconds"]["count"]) == 5

    def test_evicts_least_recently_used_past_its_byte_bound(self):
        memo = cluster_module._ReplyMemo(max_bytes=30)
        for key in "abc":
            memo.put(key, 0, key.encode() * 10)
        assert memo.get("a", 0) == b"a" * 10    # now the most recent
        memo.put("d", 0, b"d" * 10)
        assert memo.get("b", 0) is None
        assert [memo.get(key, 0) for key in "acd"] \
            == [b"a" * 10, b"c" * 10, b"d" * 10]
        memo.put("e", 0, b"e" * 25)             # evicts a, c and d
        assert memo.stats() == {"entries": 1, "bytes": 25, "max_bytes": 30,
                                "hits": 4, "misses": 1, "evictions": 4}
        memo.put("f", 0, b"f" * 31)             # larger than the bound
        assert memo.get("f", 0) is None
        assert memo.get("e", 1) is None         # another generation's
        assert memo.stats()["entries"] == 0


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
            event_conn.send((req_id, "ok", body, 0))

        reply, _ = _ask_fake(worker)
        assert reply == ("ok", body, 0)

    def test_half_written_reply_does_not_block_the_loop(self):
        body = b"x" * 200_000

        def worker(slot, task_conn, event_conn):
            req_id, _, _ = task_conn.recv()
            frame = _frame((req_id, "ok", body, 0))
            _write_all(event_conn.fileno(), frame[:1000])
            time.sleep(0.5)
            _write_all(event_conn.fileno(), frame[1000:])

        reply, ticks = _ask_fake(worker)
        assert reply == ("ok", body, 0)
        assert ticks >= 20, ticks        # the loop ran while it waited

    def test_stale_reply_is_skipped(self):
        def worker(slot, task_conn, event_conn):
            req_id, _, _ = task_conn.recv()
            event_conn.send((req_id - 1, "ok", b"stale", 0))
            event_conn.send((req_id, "ok", b"fresh", 0))

        assert _ask_fake(worker)[0] == ("ok", b"fresh", 0)

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
