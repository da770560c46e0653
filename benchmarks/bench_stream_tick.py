"""Streaming tick latency: delta renormalization vs full recompute.

Two experiments around the time-evolving relation graph of
``docs/streaming.md``:

1. **delta vs full recompute** — replay the ``dense-500`` scenario
   (500 stocks, 3% base edge density, ~6 edge events/day plus M&A and
   listing churn) and time, per day, (a) the incremental
   :meth:`~repro.graph.DynamicNormalizedAdjacency.apply_delta` touched-row
   renormalization against (b) the production full rebuild
   (``SparseTensor.from_dense`` + ``normalize_sparse_adjacency`` over
   that day's adjacency).  The delta path must be **>= 3x** faster in
   aggregate (floor enforced at the default scenario scale) and the two
   normalized adjacencies must agree to ``<= 1e-12`` — checked every
   ``EQUIV_EVERY`` days and on the final day.

2. **online replay under the tick budget** — train a small RT-GCN,
   serve it through the blessed ``build(ServeConfig(...))`` cluster,
   and replay the ``default`` scenario against ``POST
   /v1/ingest`` at the default 250 ms tick budget.  The run must
   sustain **zero fallback rankings** (every tick computed fresh).

Artifacts land in ``results/stream_tick.{txt,json}``; set
``RTGCN_BENCH_STORE=/path/db.sqlite`` to tee the JSON envelope into the
experiment store.  Scale with ``RTGCN_BENCH_STREAM_SCENARIO`` /
``RTGCN_BENCH_STREAM_DAYS``.

Run directly: ``PYTHONPATH=src python benchmarks/bench_stream_tick.py``
"""

from __future__ import annotations

import json
import os
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.ckpt import save
from repro.core import RTGCN, TrainConfig, Trainer
from repro.data import StreamingMarket, get_scenario
from repro.graph import DynamicNormalizedAdjacency
from repro.graph.adjacency import normalize_sparse_adjacency
from repro.serve import ServeConfig, build
from repro.tensor import SparseTensor

from _harness import (BENCH_SEED, bench_dataset, format_table, publish,
                      publish_result)

STREAM_SCENARIO = os.environ.get("RTGCN_BENCH_STREAM_SCENARIO",
                                 "dense-500")
STREAM_DAYS = int(os.environ.get("RTGCN_BENCH_STREAM_DAYS", "0"))  # 0=all
SERVE_MARKET = os.environ.get("RTGCN_BENCH_SERVE_MARKET", "csi-mini")
#: the served checkpoint's input window T
SERVE_WINDOW = 10
#: check delta/full equivalence every K days (and always on the last)
EQUIV_EVERY = 5
#: aggregate delta-vs-full speedup floor, enforced at default scale
SPEEDUP_FLOOR = 3.0
EQUIV_TOL = 1e-12


# ---------------------------------------------------------------------
# experiment 1: per-day delta update vs production full rebuild
# ---------------------------------------------------------------------
def full_rebuild(adjacency: np.ndarray) -> SparseTensor:
    """The production from-scratch path a static server would run."""
    tilde = adjacency + np.eye(adjacency.shape[0])
    return normalize_sparse_adjacency(SparseTensor.from_dense(tilde))


def sparse_to_dense(tensor: SparseTensor) -> np.ndarray:
    pattern = tensor.pattern
    dense = np.zeros(pattern.shape)
    dense[pattern.rows, pattern.indices] = tensor.values.data
    return dense


def run_delta_vs_full() -> dict:
    overrides = {"num_days": STREAM_DAYS} if STREAM_DAYS else {}
    scenario = get_scenario(STREAM_SCENARIO, **overrides)
    market = StreamingMarket(scenario)
    dynamic = DynamicNormalizedAdjacency(market.base_adjacency(),
                                         mode="csr")
    delta_s, full_s = [], []
    edits = touched = 0
    max_diff = 0.0
    days = list(market.replay())
    for events in days:
        t0 = time.perf_counter()
        touched += dynamic.apply_delta(events.deltas)
        delta_s.append(time.perf_counter() - t0)
        edits += len(events.deltas)

        adjacency = market.adjacency_at(events.day)
        t0 = time.perf_counter()
        rebuilt = full_rebuild(adjacency)
        full_s.append(time.perf_counter() - t0)

        last = events.day == days[-1].day
        if events.day % EQUIV_EVERY == 0 or last:
            diff = float(np.abs(dynamic.normalized_dense()
                                - sparse_to_dense(rebuilt)).max())
            max_diff = max(max_diff, diff)
            assert diff <= EQUIV_TOL, (
                f"delta drifted from full recompute on day {events.day}: "
                f"max |diff| = {diff:.3e} > {EQUIV_TOL}")
    delta_total, full_total = sum(delta_s), sum(full_s)
    return {
        "scenario": scenario.to_dict(),
        "fingerprint": scenario.fingerprint(),
        "days": len(days),
        "edge_edits": edits,
        "rows_touched": touched,
        "delta_tick_ms": {
            "mean": float(np.mean(delta_s)) * 1e3,
            "p99": float(np.percentile(delta_s, 99.0)) * 1e3,
            "max": float(np.max(delta_s)) * 1e3},
        "full_tick_ms": {
            "mean": float(np.mean(full_s)) * 1e3,
            "p99": float(np.percentile(full_s, 99.0)) * 1e3,
            "max": float(np.max(full_s)) * 1e3},
        "speedup": full_total / delta_total if delta_total else float("nan"),
        "events_per_second": edits / delta_total if delta_total else 0.0,
        "max_equivalence_diff": max_diff,
        "graph": dynamic.stats(),
    }


# ---------------------------------------------------------------------
# experiment 2: online replay through the serving stack (tick budget)
# ---------------------------------------------------------------------
def train_servable_checkpoint(directory: Path) -> Path:
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


def run_online_replay(ckpt_dir: Path) -> dict:
    handle = build(ServeConfig(checkpoint_dir=str(ckpt_dir), port=0))
    handle.start()
    try:
        host, port = handle.address
        base = f"http://{host}:{port}"
        with urllib.request.urlopen(base + "/v1/scores",
                                    timeout=60) as resp:
            universe = len(json.load(resp)["scores"])
        scenario = get_scenario("default", num_stocks=universe)
        market = StreamingMarket(scenario)
        ticks = fallbacks = overruns = edits = 0
        latencies = []
        last = None
        for events in market.replay():
            body = json.dumps(events.to_payload()).encode("utf-8")
            request = urllib.request.Request(
                base + "/v1/ingest", data=body,
                headers={"Content-Type": "application/json"},
                method="POST")
            t0 = time.perf_counter()
            with urllib.request.urlopen(request, timeout=60) as resp:
                last = json.load(resp)
            latencies.append(time.perf_counter() - t0)
            ticks += 1
            fallbacks += int(bool(last["fallback"]))
            overruns += int(bool(last["overrun"]))
            edits += int(last["applied_edits"])
    finally:
        handle.close()
    return {
        "scenario": "default",
        "universe": universe,
        "tick_budget_ms": handle.config.tick_budget_ms,
        "ticks": ticks,
        "fallbacks": fallbacks,
        "overruns": overruns,
        "applied_edits": edits,
        "tick_ms": {
            "mean": float(np.mean(latencies)) * 1e3,
            "p99": float(np.percentile(latencies, 99.0)) * 1e3,
            "max": float(np.max(latencies)) * 1e3},
        "graph": (last or {}).get("graph", {}),
    }


def main() -> None:
    import tempfile

    kernel = run_delta_vs_full()
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as tmp:
        ckpt_dir = Path(tmp)
        train_servable_checkpoint(ckpt_dir)
        online = run_online_replay(ckpt_dir)

    n = kernel["scenario"]["num_stocks"]
    rows = [
        ["delta update", kernel["days"], kernel["edge_edits"],
         kernel["delta_tick_ms"]["mean"], kernel["delta_tick_ms"]["p99"],
         kernel["delta_tick_ms"]["max"]],
        ["full recompute", kernel["days"], kernel["edge_edits"],
         kernel["full_tick_ms"]["mean"], kernel["full_tick_ms"]["p99"],
         kernel["full_tick_ms"]["max"]],
        ["online /v1/ingest", online["ticks"], online["applied_edits"],
         online["tick_ms"]["mean"], online["tick_ms"]["p99"],
         online["tick_ms"]["max"]],
    ]
    note = (f"delta/full speedup: {kernel['speedup']:.1f}x "
            f"(floor: {SPEEDUP_FLOOR:.0f}x at {n} stocks), "
            f"{kernel['events_per_second']:.0f} edge events/s, "
            f"max equivalence diff {kernel['max_equivalence_diff']:.1e}; "
            f"online: {online['fallbacks']} fallback(s) of "
            f"{online['ticks']} tick(s) at the "
            f"{online['tick_budget_ms']:.0f}ms budget")
    table = format_table(
        f"Streaming tick latency — {STREAM_SCENARIO} scenario "
        f"({n} stocks), online replay on {SERVE_MARKET}",
        ["path", "ticks", "edits", "mean ms", "p99 ms", "max ms"],
        rows, note=note)
    publish("stream_tick", table)
    publish_result("stream_tick", {
        "delta_vs_full": kernel,
        "online_replay": online,
        "speedup_floor": SPEEDUP_FLOOR,
        "equivalence_tolerance": EQUIV_TOL,
    }, dataset=bench_dataset(SERVE_MARKET), window=SERVE_WINDOW)
    print("JSON artifact: benchmarks/results/stream_tick.json")

    # The 3x floor is calibrated for the default dense-500 scenario;
    # scaled-down smoke runs record but don't enforce.
    if STREAM_SCENARIO == "dense-500" and not STREAM_DAYS:
        assert kernel["speedup"] >= SPEEDUP_FLOOR, (
            f"delta update only {kernel['speedup']:.2f}x faster than the "
            f"full recompute (floor: {SPEEDUP_FLOOR}x)")
    assert online["fallbacks"] == 0, (
        f"{online['fallbacks']} fallback ranking(s) served at the default "
        f"{online['tick_budget_ms']:.0f}ms tick budget")
    print(f"stream tick bench OK: delta {kernel['speedup']:.1f}x, "
          f"{kernel['events_per_second']:.0f} events/s, "
          f"0 fallbacks online")


if __name__ == "__main__":
    main()
