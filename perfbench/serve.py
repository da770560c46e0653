"""serve-mixed: ``repro.cli serve --mode cluster`` under mixed read/ingest load.

The server runs as its own process (``serve_host.py`` -> ``repro.cli
serve``) with one forked inference worker, on an RT-GCN (T) nasdaq-mini
checkpoint trained at the start of the run.  This process is the only
load generator: one asyncio loop over two keep-alive connections.

1. Open loop at a fixed rate, each request timed from when it was due:
   80% ``GET /v1/top_k`` (half on the latest day, half uniform over the
   40 days before it) and 20% ``POST /v1/ingest`` replaying the
   ``default`` stream scenario sized to the universe.
2. Closed-loop saturation with reads only, two connections.

Every response is checked; a non-200, a timeout or a wrong payload
counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import re
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from hostref import NOMINAL_S, HostReference
from result import Result, percentile
from spans import load_dumps, merge, self_times, totals

HERE = Path(__file__).resolve().parent
MARKET = "nasdaq-mini"
MODEL = "RT-GCN (T)"
RATE = 100.0             # open-loop requests per second, about half capacity
READ_SHARE = 0.8
PRIOR_DAYS = 40
K = 10
CONNECTIONS = 2
SATURATION_READS = 1200
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro.cli serve`` process, started and stopped by this run."""

    def __init__(self, ckpt_dir: Path, log_path: Path,
                 spans_dir: Optional[Path] = None):
        cmd = [sys.executable, str(HERE / "serve_host.py")]
        if spans_dir is not None:
            cmd += ["--spans", str(spans_dir)]
        cmd += ["serve", "--checkpoint-dir", str(ckpt_dir), "--mode",
                "cluster", "--cluster-workers", "1", "--port", "0",
                "--host", "127.0.0.1"]
        self.log = open(log_path, "a")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.lines: List[str] = []
        self._drain = None
        self.port = self._wait_for_port()
        self._drain = threading.Thread(target=self._drain_stdout,
                                       daemon=True)
        self._drain.start()
        self._wait_healthy()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=0.5):
                    if self.proc.poll() is not None:
                        break
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                self.lines.append(line)
                match = re.search(r"on http://[\d.]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self.stop()
        raise RuntimeError(f"server did not report its port: {self.lines}")

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with contextlib.suppress(OSError, ValueError):
                status, payload = self.get("/v1/health")
                if status == 200 and payload.get("status") == "ok":
                    return
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("server never became healthy")

    def get(self, path: str) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def post(self, path: str, body: dict) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """VmHWM of the front-end plus its forked inference worker(s)."""
        pids = [self.proc.pid] + self._workers()
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def _workers(self) -> List[int]:
        own = Path(f"/proc/{self.proc.pid}/cmdline").read_bytes()
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/"
                        "children").read_text().split()
        workers = []
        for pid in map(int, children):
            with contextlib.suppress(OSError):
                if Path(f"/proc/{pid}/cmdline").read_bytes() == own:
                    workers.append(pid)
        return workers

    def stop(self) -> None:
        """SIGINT (clean shutdown, spans written), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self._drain is not None:
            self._drain.join(timeout=10)
        self.proc.stdout.close()
        self.log.close()


def _vm_hwm_kb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    return 0.0


def train_checkpoint(ckpt_dir: Path, seed: int) -> None:
    """A short RT-GCN (T) fit whose checkpoint the server loads."""
    from repro.cli import main as cli_main

    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(["train", "--market", MARKET, "--model", MODEL,
                         "--window", "20", "--epochs", "1",
                         "--max-train-days", "20", "--seed", str(seed),
                         "--checkpoint-dir", str(ckpt_dir)])
    if code:
        raise RuntimeError(f"checkpoint training exited {code}")


class SpeedProbe:
    """``hostref.py`` in its own process, sampling host speed during load.

    The load generator's own reference samples do not follow the speed of
    the server processes, so the serve workload normalises by a probe
    scheduled like them: a separate process running the reference kernel
    at a low duty cycle (about 3%) for as long as the load runs.
    """

    def __init__(self, interval_s: float = 0.1):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostref.py"), str(interval_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop(self) -> List[Tuple[float, float]]:
        """End the probe; returns its (start, CPU seconds) readings."""
        out, _ = self.proc.communicate(timeout=30)
        return [(float(a), float(b)) for a, b in
                (line.split() for line in out.splitlines())]


def probe_median(readings, start: float, end: float) -> float:
    inside = [cpu for at, cpu in readings if start <= at <= end]
    return statistics.median(inside)


# ----------------------------------------------------------------------
# HTTP/1.1 keep-alive client
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(OSError):
                await self.writer.wait_closed()
            self.writer = None

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------
class Op:
    __slots__ = ("kind", "due", "path", "body", "deltas", "day",
                 "queued", "sent", "done", "ok")

    def __init__(self, kind, due, path, body=b"", deltas=0, day=None):
        self.kind, self.due, self.path = kind, due, path
        self.body, self.deltas, self.day = body, deltas, day
        self.queued = self.sent = self.done = 0.0
        self.ok = False


def make_schedule(seed: int, seconds: float, last_day: int,
                  universe: int) -> List[Op]:
    """The open-loop ops for this seed: kinds, days and ingest bodies."""
    from repro.data import StreamingMarket, get_scenario

    rng = np.random.default_rng(seed)
    total = int(round(RATE * seconds))
    ingests = int(round(total * (1.0 - READ_SHARE)))
    kinds = np.array(["read"] * (total - ingests) + ["ingest"] * ingests)
    rng.shuffle(kinds)
    scenario = get_scenario("default", num_stocks=universe,
                            num_days=ingests, seed=seed)
    events = iter(StreamingMarket(scenario).replay())
    ops = []
    for index, kind in enumerate(kinds):
        due = index / RATE
        if kind == "read":
            if rng.random() < 0.5:
                day = last_day
            else:
                day = int(rng.integers(last_day - PRIOR_DAYS, last_day))
            ops.append(Op("read", due, f"/v1/top_k?k={K}&day={day}",
                          day=day))
        else:
            payload = next(events).to_payload()
            ops.append(Op("ingest", due, "/v1/ingest",
                          body=json.dumps(payload).encode("utf-8"),
                          deltas=len(payload["deltas"])))
    return ops


class Checker:
    """Validates every response; repeated reads of a day must agree."""

    def __init__(self):
        self.first_top_k: Dict[int, list] = {}

    def read(self, op: Op, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        payload = json.loads(body)
        top = payload.get("top_k")
        if payload.get("day") != op.day or not isinstance(top, list) \
                or len(top) != K or payload.get("k") != K:
            return False
        if [row["rank"] for row in top] != list(range(1, K + 1)):
            return False
        scores = [row["score"] for row in top]
        if any(a < b for a, b in zip(scores, scores[1:])):
            return False
        return self.first_top_k.setdefault(op.day, top) == top

    @staticmethod
    def ingest(op: Op, status: int, body: bytes) -> bool:
        if status != 200:
            return False
        return json.loads(body).get("applied_edits") == op.deltas


async def _run_ops(port: int, ops: List[Op], checker: Checker,
                   open_loop: bool) -> float:
    """Send ``ops`` over CONNECTIONS keep-alive connections.

    Open loop: a producer enqueues each op at its due time and the
    connections take them in order.  Closed loop: every op is due at
    once and each connection sends its next op when the previous one
    returns.  Returns the loop's start on the perf_counter clock.
    """
    queue: asyncio.Queue = asyncio.Queue()
    start = time.perf_counter() + 0.05

    async def connection() -> None:
        conn = Connection(port)
        await conn.open()
        try:
            while True:
                op = await queue.get()
                if op is None:
                    return
                op.sent = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(
                        conn.request("POST" if op.kind == "ingest" else "GET",
                                     op.path, op.body), REQUEST_TIMEOUT_S)
                except (asyncio.TimeoutError, OSError, ValueError,
                        asyncio.IncompleteReadError):
                    op.done = time.perf_counter()
                    await conn.close()
                    await conn.open()
                    continue
                op.done = time.perf_counter()
                op.ok = (checker.read(op, status, body) if op.kind == "read"
                         else checker.ingest(op, status, body))
        finally:
            await conn.close()

    tasks = [asyncio.create_task(connection()) for _ in range(CONNECTIONS)]
    for op in ops:
        if open_loop:
            delay = start + op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            op.queued = time.perf_counter()
        else:
            op.queued = start
        op.due = start + op.due if open_loop else start
        queue.put_nowait(op)
    for _ in tasks:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    return start


def drive(port: int, ops: List[Op], checker: Checker,
          open_loop: bool) -> float:
    return asyncio.run(_run_ops(port, ops, checker, open_loop))


def warm_up(server: Server) -> Tuple[int, int]:
    """Learn the latest servable day and universe; load the ingest path."""
    status, payload = server.get(f"/v1/top_k?k={K}")
    if status != 200:
        raise RuntimeError(f"warm-up read failed: {status} {payload}")
    last_day = int(payload["day"])
    status, scores = server.get(f"/v1/scores?day={last_day}")
    universe = len(scores.get("scores") or ())
    status, payload = server.post("/v1/ingest", {"day": -1, "deltas": []})
    if status != 200:
        raise RuntimeError(f"warm-up ingest failed: {status} {payload}")
    return last_day, universe


def op_stats(server: Server) -> dict:
    status, payload = server.get("/v1/stats")
    return payload if status == 200 else {}


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    ref = HostReference()
    ckpt_dir = out_dir / "ckpt"
    train_checkpoint(ckpt_dir, seed)
    log = out_dir / "server.log"
    if trace:
        return _run_traced(seed, seconds, ref, ckpt_dir, out_dir, log)

    # set-up: launch -> healthy, SETUP_REPEATS times; the last one stays
    probe = SpeedProbe()
    windows, setup_walls = [], []
    server = None
    try:
        time.sleep(0.5)
        for attempt in range(SETUP_REPEATS):
            start = time.perf_counter()
            server = Server(ckpt_dir, log)
            end = time.perf_counter()
            windows.append((start, end))
            setup_walls.append(end - start)
            if attempt < SETUP_REPEATS - 1:
                server.stop()
        last_day, universe = warm_up(server)
        ops = make_schedule(seed, seconds, last_day, universe)
        checker = Checker()
        open_start = drive(server.port, ops, checker, open_loop=True)
        open_end = max(op.done for op in ops)
        stats = op_stats(server)
        rng = np.random.default_rng(seed + 1)
        sat_ops = []
        for _ in range(SATURATION_READS):
            day = int(rng.integers(last_day - PRIOR_DAYS, last_day + 1))
            sat_ops.append(Op("read", 0.0, f"/v1/top_k?k={K}&day={day}",
                              day=day))
        sat_start = drive(server.port, sat_ops, checker, open_loop=False)
        sat_end = max(op.done for op in sat_ops)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        readings = probe.stop()
    # each phase is normalised by the probe readings taken during it
    setup_norm = [wall * NOMINAL_S / probe_median(readings, *window)
                  for wall, window in zip(setup_walls, windows)]
    factor = NOMINAL_S / probe_median(readings, open_start, open_end)
    sat_factor = NOMINAL_S / probe_median(readings, sat_start, sat_end)
    ref.samples.extend(cpu for at, cpu in readings
                       if open_start <= at <= sat_end)

    result = Result()
    reads = [op for op in ops if op.kind == "read"]
    ingests = [op for op in ops if op.kind == "ingest"]
    for name, group in (("read", reads), ("ingest", ingests),
                        ("saturation_read", sat_ops)):
        result.count(name, len(group), sum(1 for op in group if not op.ok))
    read_ms = [(op.done - op.due) * 1e3 for op in reads]
    ingest_ms = [(op.done - op.due) * 1e3 for op in ingests]
    sat_ok = sum(1 for op in sat_ops if op.ok)
    result.timing("main_p50_ms", "ms", percentile(read_ms, 50), factor,
                  len(read_ms), "top_k read p50 from due (read_p50_ms)")
    result.rate("throughput_per_s", "1/s", sat_ok / (sat_end - sat_start),
                sat_factor, len(sat_ops), "closed-loop reads/s, 2 conns "
                "(saturated_rps)")
    result.timing("setup_s", "s", statistics.median(setup_walls), factor,
                  len(setup_norm), "serve process start -> healthy",
                  normalised=statistics.median(setup_norm))
    result.plain("peak_rss_mb", "MB", rss, "front-end + worker VmHWM")
    # context, printed but not bounded: tails (stall episodes on a shared
    # VM move them by more than any bound; README.md, "Steadiness") and
    # ingest latency, whose train-side counterpart was not steady either
    result.timing("ingest_p50_ms", "ms", percentile(ingest_ms, 50), factor,
                  len(ingest_ms), "ingest p50 from due")
    result.timing("read_p99_ms", "ms", percentile(read_ms, 99), factor,
                  len(read_ms), "top_k read p99 from due")
    result.timing("ingest_p95_ms", "ms", percentile(ingest_ms, 95), factor,
                  len(ingest_ms), "ingest p95 from due")
    late = [(op.queued - op.due) * 1e3 for op in ops]
    result.context.update({
        "rate_rps": RATE, "reads": len(reads), "ingests": len(ingests),
        "loadgen_late_p99_ms": percentile(late, 99),
        "open_loop_s": max(op.done for op in ops) - min(op.due for op in ops),
        "server_shed": stats.get("shed"),
        "server_fallbacks": stats.get("fallbacks"),
        "queue_depth_p50": (stats.get("queue_depth") or {}).get("p50"),
        "universe": universe, "model": MODEL, "market": MARKET,
        "dtype_policy": "float64"})
    result.reference(ref)
    return result


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _phase(seed, seconds, ckpt_dir, log, spans_dir=None):
    server = Server(ckpt_dir, log, spans_dir)
    try:
        last_day, universe = warm_up(server)
        before = op_stats(server)
        ops = make_schedule(seed, seconds, last_day, universe)
        start = drive(server.port, ops, Checker(), open_loop=True)
        after = op_stats(server)
    finally:
        server.stop()
    return ops, start, before, after, server.proc.pid


def _top_k_sum(stats: dict) -> Tuple[float, int]:
    """(seconds summed, count) of successful top_k reads in a snapshot."""
    lat = ((stats.get("per_op") or {}).get("top_k") or {}) \
        .get("latency_seconds") or {}
    return lat.get("mean", 0.0) * lat.get("count", 0), lat.get("count", 0)


def _run_traced(seed, seconds, ref, ckpt_dir, out_dir, log) -> Result:
    result = Result()
    probe = SpeedProbe()
    try:
        plain_ops, *_ = _phase(seed, seconds, ckpt_dir, log)
        spans_dir = out_dir / "spans"
        spans_dir.mkdir()
        ops, start, before, after, front_pid = _phase(
            seed, seconds, ckpt_dir, log, spans_dir)
    finally:
        ref.samples.extend(cpu for _, cpu in probe.stop())
    factor = ref.factor()
    dumps = load_dumps(str(spans_dir))
    end = max(op.done for op in ops)
    front = [d for d in dumps if d["pid"] == front_pid]
    workers = [d for d in dumps if d["pid"] != front_pid]
    window = (start, end)

    reads = [op for op in ops if op.kind == "read"]
    ingests = [op for op in ops if op.kind == "ingest"]
    for name, group in (("read", reads), ("ingest", ingests)):
        result.count(name, len(group), sum(1 for op in group if not op.ok))
    n_reads, n_ingests = len(reads), len(ingests)

    def per(ms_total, n):
        return ms_total * 1e3 / max(n, 1) * factor

    worker_self = merge(*(self_times(d["spans"], window) for d in workers))
    worker_total = merge(*(totals(d["spans"], window) for d in workers))
    forward_total, forwards = worker_total.get("serve.forward", (0.0, 0))
    for span, metric in (("data.features", "data.features_ms"),
                         ("graph.adjacency", "graph.adjacency_ms"),
                         ("core.relational", "core.relational_ms"),
                         ("core.temporal", "core.temporal_ms"),
                         ("core.head", "core.head_ms"),
                         ("serve.forward", "serve.forward_ms")):
        result.plain(metric, "ms",
                     per(worker_self.get(span, (0.0, 0))[0], n_reads))
    result.plain("serve.forwards", "count", forwards)
    result.plain("serve.coalesced_share", "share",
                 1.0 - forwards / max(n_reads, 1))

    sum_after, count_after = _top_k_sum(after)
    sum_before, count_before = _top_k_sum(before)
    server_ms = (sum_after - sum_before) * 1e3 / max(
        count_after - count_before, 1) * factor
    client_send_ms = statistics.fmean(op.done - op.sent for op in reads) \
        * 1e3 * factor
    client_due_ms = statistics.fmean(op.done - op.due for op in reads) \
        * 1e3 * factor
    forward_ms = per(forward_total, n_reads)
    result.plain("serve.admit_ms", "ms", server_ms - forward_ms)
    result.plain("serve.wire_ms", "ms", client_send_ms - server_ms)
    result.plain("unattributed_ms", "ms", client_due_ms - client_send_ms)
    result.plain("obs.step_ms", "ms", client_due_ms)
    result.plain("serve.queue_depth_p50", "count",
                 (after.get("queue_depth") or {}).get("p50", 0.0))
    result.plain("serve.fallbacks", "count", after.get("fallbacks", 0))
    result.plain("serve.shed", "count", after.get("shed", 0))

    front_self = merge(*(self_times(d["spans"], window) for d in front))
    front_total = merge(*(totals(d["spans"], window) for d in front))
    result.plain("serve.ingest_ms", "ms",
                 per(front_self.get("serve.ingest", (0.0, 0))[0], n_ingests))
    result.plain("serve.ingest_forward_ms", "ms",
                 per(front_total.get("serve.forward", (0.0, 0))[0],
                     n_ingests))
    result.plain("graph.delta_ms", "ms",
                 per(front_total.get("graph.delta", (0.0, 0))[0], n_ingests))
    touched = sum(d["counters"].get("graph.touched_rows", 0.0)
                  for d in front)
    result.plain("graph.touched_rows", "count", touched / max(n_ingests, 1))

    late = [(op.queued - op.due) * 1e3 for op in ops]
    result.plain("loadgen.late_p99_ms", "ms", percentile(late, 99))
    result.plain("loadgen.sent", "count", sum(1 for op in ops if op.sent))
    traced_p50 = percentile([op.done - op.due for op in reads], 50)
    plain_p50 = percentile([op.done - op.due for op in plain_ops
                            if op.kind == "read"], 50)
    result.plain("obs.trace_overhead_pct", "%",
                 (traced_p50 / plain_p50 - 1.0) * 100.0)
    result.context.update({"worker_span_files": len(workers),
                           "front_span_files": len(front),
                           "reads": n_reads, "ingests": n_ingests})
    result.reference(ref)
    return result
