"""Serving load test: the memo read path, the HTTP cluster, SLO search.

Trains a small RT-GCN, checkpoints it, and drives the server built by
``build(ServeConfig(...))`` in three experiments:

1. **memo reads vs forwards, in-process**: ``SERVE_CLIENTS`` threads in
   one process call, back to back, either what a cluster worker runs per
   ranking read (``_worker_execute`` + ``json_body`` against a warm
   per-day memo) or one ``engine.scores`` forward per request.  The
   worker serves a day's ranking from its memo until the weights change,
   so this ratio is what the memo buys; floor: **3x**.
2. **closed-loop over HTTP**: the same saturating top-k load against the
   cluster's listener; every request must succeed.
3. **open-loop SLO search**: requests are issued on a fixed schedule
   regardless of completions — the honest arrival model — and the
   offered rate steps up until p99 exceeds the 50 ms budget.  The result
   is the **max sustainable QPS under SLO**; on hosts with >= 2 cores the
   cluster must meet the budget at the lowest offered rate.

Artifacts land in ``results/serving.json`` (schema-v1 envelope, stamped
with the commit, core count and BLAS thread settings); set
``RTGCN_BENCH_STORE=/path/db.sqlite`` to also record the report and the
HTTP run's ``slo`` rows in the experiment store.  Scale the load with
``RTGCN_BENCH_SERVE_CLIENTS`` / ``_SECONDS``.

Run directly: ``PYTHONPATH=src python benchmarks/bench_serving.py``
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

from repro.ckpt import save
from repro.core import RTGCN, TrainConfig, Trainer
from repro.serve import ServeConfig, build
from repro.serve.cluster import _worker_execute
from repro.serve.httpd import json_body

from _harness import (BENCH_SEED, bench_dataset, format_table, publish,
                      publish_result)

SERVE_CLIENTS = int(os.environ.get("RTGCN_BENCH_SERVE_CLIENTS", "8"))
SERVE_SECONDS = float(os.environ.get("RTGCN_BENCH_SERVE_SECONDS", "3.0"))
SERVE_MARKET = os.environ.get("RTGCN_BENCH_SERVE_MARKET", "csi-mini")
#: the served checkpoint's input window T
SERVE_WINDOW = 10
SERVE_STORE = os.environ.get("RTGCN_BENCH_STORE", "")
SLO_P99_MS = float(os.environ.get("RTGCN_BENCH_SERVE_SLO_MS", "50.0"))
CLUSTER_WORKERS = int(os.environ.get("RTGCN_BENCH_SERVE_WORKERS", "2"))
OPEN_LOOP_QPS_STEPS = tuple(
    float(q) for q in os.environ.get(
        "RTGCN_BENCH_SERVE_QPS_STEPS",
        "5,10,20,40,80,160").split(","))

#: memo reads/s over forwards/s; measured 17-32x on a 2-core host
MEMO_FLOOR = 3.0


def train_servable_checkpoint(directory: Path) -> Path:
    """One briefly-trained RT-GCN archive with serving metadata."""
    dataset = bench_dataset(SERVE_MARKET)
    config = TrainConfig(window=SERVE_WINDOW, epochs=1, max_train_days=20,
                         seed=BENCH_SEED)
    model = RTGCN(dataset.relations, num_features=config.num_features,
                  strategy="time", rng=np.random.default_rng(BENCH_SEED))
    trainer = Trainer(model, dataset, config)
    trainer.run()
    checkpoint = trainer.state_dict()
    checkpoint.metadata = {"model": "RT-GCN (T)", "market": SERVE_MARKET}
    return save(checkpoint, directory / "best.npz")


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 in seconds (NaN when nothing finished)."""
    flat = sorted(samples)

    def pct(q: float) -> float:
        if not flat:
            return float("nan")
        return flat[min(len(flat) - 1, int(q * len(flat)))]

    return {"count": len(flat), "p50": pct(0.50), "p95": pct(0.95),
            "p99": pct(0.99)}


def closed_loop(request: Callable[[], object], clients: int,
                seconds: float) -> dict:
    """Run ``request`` back to back on ``clients`` threads for ``seconds``.

    Every client issues its next request as soon as the previous one
    returns; an exception counts as a failed request.
    """
    stop = time.perf_counter() + seconds
    counts = [0] * clients
    failures = [0] * clients
    latencies: List[List[float]] = [[] for _ in range(clients)]

    def client(index: int) -> None:
        while time.perf_counter() < stop:
            started = time.perf_counter()
            try:
                request()
            except Exception:
                failures[index] += 1
                continue
            counts[index] += 1
            latencies[index].append(time.perf_counter() - started)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return {
        "clients": clients,
        "duration_seconds": elapsed,
        "completed_requests": sum(counts),
        "failed_requests": sum(failures),
        "throughput_rps": sum(counts) / elapsed,
        "latency_seconds": _percentiles(
            [x for per_client in latencies for x in per_client]),
    }


# ---------------------------------------------------------------------
# experiment 1: memo reads vs forwards, in-process
# ---------------------------------------------------------------------
def run_inprocess(ckpt_dir: Path) -> List[dict]:
    handle = build(ServeConfig(checkpoint_dir=str(ckpt_dir), port=0))
    try:
        engine = handle.service.engine()
        # _worker_execute reads only ``generation`` from a worker's
        # shared-memory reader
        reader = SimpleNamespace(generation=0)
        query = {"k": "10"}

        def memo_read() -> bytes:
            return json_body(_worker_execute(engine, reader, 0, "top_k",
                                             query))

        memo_read()                    # the day's one forward
        memo = closed_loop(memo_read, SERVE_CLIENTS, SERVE_SECONDS)
        forward = closed_loop(engine.scores, SERVE_CLIENTS, SERVE_SECONDS)
    finally:
        handle.close()
    memo["mode"] = "memo-read"
    forward["mode"] = "forward"
    return [memo, forward]


# ---------------------------------------------------------------------
# experiment 2: HTTP closed loop
# ---------------------------------------------------------------------
def _http_get(base: str, path: str, timeout: float = 60.0) -> dict:
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return json.load(resp)


def run_http(ckpt_dir: Path, store_path: str) -> dict:
    handle = build(ServeConfig(
        checkpoint_dir=str(ckpt_dir), port=0,
        cluster_workers=CLUSTER_WORKERS, slo_p99_ms=SLO_P99_MS,
        store=store_path or None))
    handle.start()
    try:
        host, port = handle.address
        base = f"http://{host}:{port}"
        _http_get(base, "/v1/top_k?k=10")      # warm
        result = closed_loop(lambda: _http_get(base, "/v1/top_k?k=10"),
                             SERVE_CLIENTS, SERVE_SECONDS)
    finally:
        handle.close()                          # persists SLO row if store
    result["mode"] = "http-cluster"
    result["workers"] = CLUSTER_WORKERS
    return result


# ---------------------------------------------------------------------
# experiment 3: open-loop SLO search (max sustainable QPS, p99 < SLO)
# ---------------------------------------------------------------------
def open_loop_step(base: str, qps: float, seconds: float) -> dict:
    """Issue requests on a fixed schedule (no coordination with
    completions) and measure the real latency distribution.  Requests
    that would start late count as issued-late but still run — the
    classic coordinated-omission fix."""
    total = max(1, int(qps * seconds))
    interval = 1.0 / qps
    latencies: list = []
    failures = [0]
    lock = threading.Lock()
    threads = []

    def fire() -> None:
        started = time.perf_counter()
        try:
            _http_get(base, "/v1/top_k?k=10")
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
        except Exception:
            with lock:
                failures[0] += 1

    t0 = time.perf_counter()
    for i in range(total):
        delay = t0 + i * interval - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        thread = threading.Thread(target=fire)
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=60)
    latency = _percentiles(latencies)
    return {"offered_qps": qps, "issued": total,
            "completed": latency["count"], "failed": failures[0],
            "p50_ms": latency["p50"] * 1000.0,
            "p99_ms": latency["p99"] * 1000.0}


def run_open_loop(ckpt_dir: Path) -> dict:
    handle = build(ServeConfig(
        checkpoint_dir=str(ckpt_dir), port=0,
        cluster_workers=CLUSTER_WORKERS, slo_p99_ms=SLO_P99_MS))
    handle.start()
    steps = []
    sustainable = None
    try:
        host, port = handle.address
        base = f"http://{host}:{port}"
        _http_get(base, "/v1/top_k?k=10")      # warm
        for qps in OPEN_LOOP_QPS_STEPS:
            step = open_loop_step(base, qps, SERVE_SECONDS)
            steps.append(step)
            within = (step["failed"] == 0
                      and step["p99_ms"] < SLO_P99_MS)
            step["within_slo"] = within
            if within:
                sustainable = qps
            else:
                break
    finally:
        handle.close()
    return {"mode": "open-loop-cluster", "workers": CLUSTER_WORKERS,
            "slo_p99_ms": SLO_P99_MS, "steps": steps,
            "max_sustainable_qps": sustainable}


def main() -> None:
    import tempfile

    cores = os.cpu_count() or 1
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        ckpt_dir = Path(tmp)
        train_servable_checkpoint(ckpt_dir)

        memo, forward = run_inprocess(ckpt_dir)
        http_cluster = run_http(ckpt_dir, SERVE_STORE)
        open_loop = run_open_loop(ckpt_dir)

    memo_ratio = (memo["throughput_rps"] / forward["throughput_rps"]
                  if forward["throughput_rps"] > 0 else float("nan"))
    slo_floor_applies = cores >= 2

    rows = []
    for result in (memo, forward, http_cluster):
        latency = result["latency_seconds"]
        rows.append([result["mode"], result["completed_requests"],
                     result["failed_requests"], result["throughput_rps"],
                     latency["p50"] * 1000.0, latency["p95"] * 1000.0,
                     latency["p99"] * 1000.0])
    note = (f"memo reads/forwards: {memo_ratio:.1f}x (floor: "
            f"{MEMO_FLOOR:g}x); HTTP cluster ({CLUSTER_WORKERS} workers): "
            f"{http_cluster['failed_requests']} failed; open-loop max "
            f"sustainable: {open_loop['max_sustainable_qps']} qps @ p99 < "
            f"{SLO_P99_MS:.0f}ms ({cores} core(s), floor "
            f"{'applies' if slo_floor_applies else 'recorded only'})")
    table = format_table(
        f"Serving load test — {SERVE_CLIENTS} closed-loop clients, "
        f"{SERVE_SECONDS:g}s per mode ({SERVE_MARKET})",
        ["mode", "requests", "failed", "rps", "p50 ms", "p95 ms",
         "p99 ms"],
        rows, note=note)
    publish("serving", table)
    publish_result("serving", {
        "market": SERVE_MARKET,
        "model": "RT-GCN (T)",
        "clients": SERVE_CLIENTS,
        "seconds_per_mode": SERVE_SECONDS,
        "memo_over_forward": memo_ratio,
        "slo_p99_ms": SLO_P99_MS,
        "max_sustainable_qps": open_loop["max_sustainable_qps"],
        "modes": [memo, forward, http_cluster],
        "open_loop": open_loop,
    }, dataset=bench_dataset(SERVE_MARKET), window=SERVE_WINDOW)
    print("JSON artifact: benchmarks/results/serving.json")

    assert memo_ratio >= MEMO_FLOOR, (
        f"memo reads only {memo_ratio:.2f}x forwards/s, below the "
        f"{MEMO_FLOOR:g}x floor")
    assert http_cluster["failed_requests"] == 0, (
        f"{http_cluster['failed_requests']} HTTP request(s) failed "
        f"against the cluster")
    if slo_floor_applies:
        assert open_loop["max_sustainable_qps"] is not None, (
            f"cluster never met p99 < {SLO_P99_MS:.0f}ms at the lowest "
            f"offered rate {OPEN_LOOP_QPS_STEPS[0]} qps")
    print(f"serving bench OK: memo reads {memo_ratio:.1f}x forwards, "
          f"0 failed HTTP requests, sustainable "
          f"{open_loop['max_sustainable_qps']} qps")


if __name__ == "__main__":
    main()
