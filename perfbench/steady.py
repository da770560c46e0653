#!/usr/bin/env python3
"""Steadiness harness: run the benchmark over several seeds and report,
per workload and end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
The spread of the raw wall-time readings is printed beside it, so each
workload shows whether host-speed normalisation narrowed it.

    python3 perfbench/steady.py --workloads train-rtgcn,serve-mixed --seeds 5
    python3 perfbench/steady.py --selftest

Every run is also checked against the sampling rules of
:func:`sampling_problems`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fewest samples a reported percentile may come from: p99 needs ten
#: beyond it; a p95 from 300 samples or fewer moved 9% between runs
MIN_SAMPLES = {"p50": 100, "p95": 301, "p99": 1000}
#: fewest repetitions behind a median set-up time
MIN_SETUPS = 3
#: fewest samples behind any other timing (a short total is one sample)
MIN_OTHER = 100


def sampling_problems(rows: List[dict]) -> List[str]:
    """Rules each metric row of one run must meet.

    1. A percentile comes from enough samples (``MIN_SAMPLES``).
    2. No timing is a short total: anything not a percentile or set-up
       is a median or rate over at least ``MIN_OTHER`` samples (``epoch_s``
       is exempt: its samples are whole epochs of 220 steps).
    3. ``setup_s`` is the median of at least ``MIN_SETUPS`` set-ups,
       each normalised by reference samples taken right around it, so
       host drift between runs does not move it.
    """
    problems = []
    for row in rows:
        name, samples = row["name"], row.get("samples")
        if samples is None:
            continue
        if name == "setup_s":
            if samples < MIN_SETUPS:
                problems.append(f"setup_s from {samples} set-up(s)")
            continue
        tag = next((t for t in MIN_SAMPLES if f"_{t}_" in f"_{name}_"),
                   None)
        floor = MIN_SAMPLES[tag] if tag else MIN_OTHER
        if samples < floor and not name.startswith("epoch"):
            problems.append(f"{name} from {samples} samples "
                            f"(needs {floor})")
    return problems


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    context = next(json.loads(line[len("CONTEXT "):]) for line in lines
                   if line.startswith("CONTEXT "))
    return {"result": json.loads(lines[-1]), "context": context}


def report(workload: str, runs: List[dict], bench: dict) -> bool:
    ok = True
    print(f"\n== {workload}: {len(runs)} runs")
    for run in runs:
        result = run["result"]
        problems = sampling_problems(run["context"]["rows"])
        if not result["correct"] or result["failed"] or problems:
            ok = False
        print(f"  seed {run['context']['provenance']['seed']}: correct="
              f"{result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} host_ref="
              f"{run['context']['host_ref_median_ms']:.3f}ms "
              f"{'; '.join(problems)}")
    print(f"  {'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'raw':>7s}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        raws = [next(row["raw"] for row in run["context"]["rows"]
                     if row["name"] == name) for run in runs]
        stat, raw = spread(values), spread(raws)
        within = stat["spread"] <= metric["bound"] or name == "setup_s"
        ok &= within
        flag = "" if stat["spread"] <= metric["bound"] / 3 else \
            (" > bound/3" if within else " > BOUND")
        print(f"  {name:18s} {stat['median']:11.5g} {stat['q1']:11.5g} "
              f"{stat['q3']:11.5g} {stat['spread']:7.3f} "
              f"{metric['bound']:6.2f} {raw['spread']:7.3f}{flag}")
    return ok


def selftest() -> int:
    """Each known way to get an unsteady metric must be caught."""
    cases = {
        "short total": [{"name": "test_sweep_s", "samples": 1}],
        "p95 from 300 samples": [{"name": "step_p95_ms", "samples": 300}],
        "setup_s from one set-up": [{"name": "setup_s", "samples": 1}],
    }
    good = [{"name": "step_p99_ms", "samples": 1100},
            {"name": "ingest_p95_ms", "samples": 320},
            {"name": "setup_s", "samples": 3},
            {"name": "throughput_per_s", "samples": 600}]
    failed = [case for case, rows in cases.items()
              if not sampling_problems(rows)]
    if sampling_problems(good):
        failed.append(f"false alarm: {sampling_problems(good)}")
    values = [1.0, 1.1, 0.9, 1.0, 1.05]
    if abs(spread(values)["spread"] - 0.125) > 1e-9:
        failed.append("spread arithmetic")
    print("selftest", "FAILED: " + ", ".join(failed) if failed else "ok")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default="train-rtgcn,train-lstm,serve-mixed")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write every run's result here")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    saved = {}
    for workload in args.workloads.split(","):
        runs = saved[workload] = [
            run_once(workload, seed, bench["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.seeds)]
        ok &= report(workload, runs, bench)
    if args.save:
        Path(args.save).write_text(json.dumps(saved))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
