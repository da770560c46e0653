"""Parallel sweep scaling: 1/2/4 workers on a Table-IV mini matrix.

Runs the same (model × market × seed) sweep through
:func:`repro.parallel.run_experiments_parallel` at 1, 2, and 4 workers
and reports, per worker count:

- wall-clock speedup over the serial sweep (the PR's acceptance floor is
  **1.6×** at 2 workers — enforced only when the host has ≥2 CPU cores;
  on a single core the workers necessarily time-slice and the honest
  speedup is ~1×, which the artifact records rather than hides),
- bitwise metric equality against the serial results (NaN-aware — a
  parallel sweep that returned *different numbers* would be worthless
  however fast),
- executor telemetry (utilization, retries, crashes, max queue depth).

It also demonstrates the fault-tolerance contract end to end: a child
process running the sweep against an experiment store is SIGKILLed
mid-sweep, and the re-invocation completes only the missing runs while
still matching the serial metrics exactly.

Artifacts land in ``results/parallel_scale.{txt,json}`` (schema-v1
envelope).  Scale knobs: ``RTGCN_BENCH_EPOCHS``, ``RTGCN_BENCH_RUNS``,
``RTGCN_BENCH_SWEEP_MODELS``.

Run directly: ``PYTHONPATH=src python benchmarks/bench_parallel_scale.py``
"""

from __future__ import annotations

import math
import os
import signal
import time

import numpy as np

from repro.parallel import fork_available, run_experiments_parallel

from _harness import (BENCH_EPOCHS, BENCH_MARKETS, BENCH_RUNS, BENCH_SEED,
                      bench_config, bench_dataset, format_table, publish,
                      publish_result)

MARKET = BENCH_MARKETS[0]
MODELS = os.environ.get("RTGCN_BENCH_SWEEP_MODELS",
                        "Rank_LSTM,RSR_E,RT-GCN (T)").split(",")
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_FLOOR_2W = 1.6


def runs_equal(a, b) -> bool:
    """Bitwise equality of two run lists, treating NaN == NaN."""
    if len(a) != len(b):
        return False
    for run_a, run_b in zip(a, b):
        if set(run_a) != set(run_b):
            return False
        for key in run_a:
            va, vb = run_a[key], run_b[key]
            if math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:
                return False
    return True


def run_sweep(workers: int, store=None):
    config = bench_config()
    started = time.perf_counter()
    sweep = run_experiments_parallel(
        MODELS, [MARKET], config=config, n_runs=BENCH_RUNS,
        base_seed=BENCH_SEED, workers=workers, dataset_seed=BENCH_SEED,
        store=store)
    return sweep, time.perf_counter() - started


def kill_resume_demo(tmp_dir) -> dict:
    """SIGKILL a store-backed sweep mid-flight, resume it, verify equality.

    The child is forked (not spawned) so it shares this process's loaded
    datasets; the parent kills it as soon as the store holds the first
    completed run — exactly the "operator's laptop died" scenario
    store-backed resume exists for.
    """
    import multiprocessing

    from repro.store import ExperimentStore

    db = tmp_dir / "sweep.sqlite"

    def stored_runs() -> int:
        if not db.exists():
            return 0
        with ExperimentStore(db) as store:
            return store.execute(
                "SELECT COUNT(DISTINCT run_id) AS n FROM metrics")[0]["n"]

    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=run_sweep, args=(2, db))
    child.start()
    deadline = time.monotonic() + 600.0
    while time.monotonic() < deadline and stored_runs() < 1:
        time.sleep(0.05)
    os.kill(child.pid, signal.SIGKILL)
    child.join()

    survivors = stored_runs()
    total = len(MODELS) * BENCH_RUNS
    resumed, seconds = run_sweep(2, store=db)
    return {"stored_runs_surviving_kill": survivors,
            "total_runs": total,
            "resumed_wall_seconds": seconds,
            "resumed_sweep": resumed}


def main() -> None:
    import tempfile
    from pathlib import Path

    if not fork_available():
        raise SystemExit("bench_parallel_scale needs the fork start method")

    results = {}
    for workers in WORKER_COUNTS:
        sweep, seconds = run_sweep(workers)
        results[workers] = (sweep, seconds)
        print(f"{workers} worker(s): {seconds:.1f}s")
    serial_sweep, serial_seconds = results[1]

    rows = []
    entries = []
    for workers in WORKER_COUNTS:
        sweep, seconds = results[workers]
        speedup = serial_seconds / seconds if seconds > 0 else float("nan")
        equal = all(
            runs_equal(sweep.results[cell].runs,
                       serial_sweep.results[cell].runs)
            for cell in serial_sweep.results)
        telemetry = sweep.telemetry["metrics"] if sweep.telemetry else {}
        util = telemetry.get("utilization_mean")
        rows.append([f"{workers}", f"{seconds:.1f}",
                     f"{speedup:.2f}x", "yes" if equal else "NO",
                     f"{util:.0%}" if util is not None else "-",
                     telemetry.get("retries", 0),
                     telemetry.get("max_queue_depth")])
        entries.append({
            "workers": workers,
            "wall_seconds": seconds,
            "speedup_vs_serial": speedup,
            "metrics_equal_serial": equal,
            "telemetry": sweep.telemetry["metrics"]
                         if sweep.telemetry else None,
        })
        if not equal:
            raise SystemExit(
                f"parallel sweep at {workers} workers diverged from the "
                "serial metrics — the determinism contract is broken")

    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        demo = kill_resume_demo(Path(tmp))
    resume_equal = all(
        runs_equal(demo["resumed_sweep"].results[cell].runs,
                   serial_sweep.results[cell].runs)
        for cell in serial_sweep.results)
    if not resume_equal:
        raise SystemExit("resumed sweep diverged from serial metrics")
    if not 1 <= demo["stored_runs_surviving_kill"] <= demo["total_runs"]:
        raise SystemExit("kill-resume demo stored nothing before the "
                         "kill; raise BENCH_RUNS")

    cores = os.cpu_count() or 1
    floor_applies = cores >= 2
    speedup_2w = entries[1]["speedup_vs_serial"]
    floor_note = (f"acceptance floor: {SPEEDUP_FLOOR_2W}x"
                  if floor_applies else
                  f"floor {SPEEDUP_FLOOR_2W}x not enforced: host has "
                  f"{cores} CPU core, workers can only time-slice")
    table = format_table(
        f"Parallel sweep scaling — {len(MODELS)} models × {MARKET} × "
        f"{BENCH_RUNS} runs, {BENCH_EPOCHS} epochs, {cores} CPU core(s)",
        ["workers", "wall s", "speedup", "== serial", "util", "retries",
         "max queue"],
        rows,
        note=(f"2-worker speedup: {speedup_2w:.2f}x ({floor_note}); "
              f"kill-resume: {demo['stored_runs_surviving_kill']}/"
              f"{demo['total_runs']} runs survived SIGKILL, resumed "
              f"sweep == serial: {resume_equal}"))
    publish("parallel_scale", table)
    publish_result("parallel_scale", {
        "market": MARKET,
        "models": MODELS,
        "cpu_cores": cores,
        "speedup_floor_2_workers": SPEEDUP_FLOOR_2W,
        "speedup_floor_enforced": floor_applies,
        "scaling": entries,
        "kill_resume": {
            "stored_runs_surviving_kill":
                demo["stored_runs_surviving_kill"],
            "total_runs": demo["total_runs"],
            "resumed_wall_seconds": demo["resumed_wall_seconds"],
            "resumed_metrics_equal_serial": resume_equal,
        },
    }, dataset=bench_dataset(MARKET), window=bench_config().window)
    print("JSON artifact: benchmarks/results/parallel_scale.json")
    if floor_applies and speedup_2w < SPEEDUP_FLOOR_2W:
        raise SystemExit(
            f"2-worker speedup {speedup_2w:.2f}x is below the "
            f"{SPEEDUP_FLOOR_2W}x acceptance floor")


if __name__ == "__main__":
    main()
