#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload train-rtgcn --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``train-rtgcn``: ``Trainer.fit`` of RT-GCN (T) on nasdaq-mini at T=20;
- ``train-lstm``: the same protocol with Rank_LSTM, Fig. 5's comparator;
- ``serve-mixed``: ``repro.cli serve --mode cluster`` driven open-loop
  with 80% ``GET /v1/top_k`` and 20% ``POST /v1/ingest``.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric,
measured from spans around the program's public callables.  Metrics a
workload does not exercise read 0 in the traced run.  Run from the root
of a repository checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: the host has two cores and
# the serve workload needs one for the server and one for the client.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("train-rtgcn", "train-lstm", "serve-mixed")

#: end-to-end metrics, shared by every workload; see README.md for what
#: each one is on each workload
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "main_p50_ms": "ms",
    "throughput_per_s": "1/s",
}

_OPS = ("einsum", "conv1d_window", "gcn_propagate_fused", "lstm_cell_fused",
        "mul", "add", "sum")
#: per-layer metrics of the traced run (0 where a workload has no such layer)
PER_LAYER = {
    "data.features_ms": "ms",
    "graph.adjacency_ms": "ms", "graph.delta_ms": "ms",
    "graph.touched_rows": "count",
    "core.relational_ms": "ms", "core.temporal_ms": "ms",
    "core.head_ms": "ms", "core.loss_ms": "ms",
    "baselines.lstm_ms": "ms",
    "tensor.backward_ms": "ms", "tensor.tape_nodes": "count",
    **{f"tensor.op.{op}.{p}_{kind}": ("ms" if kind == "ms" else "count")
       for op in _OPS for p in ("fwd", "bwd") for kind in ("ms", "calls")},
    "optim.step_ms": "ms",
    "serve.forward_ms": "ms", "serve.forwards": "count",
    "serve.coalesced_share": "share", "serve.admit_ms": "ms",
    "serve.wire_ms": "ms", "serve.queue_depth_p50": "count",
    "serve.ingest_ms": "ms", "serve.ingest_forward_ms": "ms",
    "serve.fallbacks": "count", "serve.shed": "count",
    "loadgen.late_p99_ms": "ms", "loadgen.sent": "count",
    "unattributed_ms": "ms", "obs.step_ms": "ms",
    "obs.trace_overhead_pct": "%",
}

def provenance(seed: int) -> dict:
    """What produced this result: code, host and numerics."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "dtype_policy": "float64", "seed": seed,
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    out_dir = RUN_DIR / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if args.workload == "serve-mixed":
        import serve
        result = serve.run(args.seed, args.seconds, bool(args.trace),
                           out_dir)
    else:
        import train
        result = train.run(args.workload, args.seed, bool(args.trace),
                           out_dir)

    result.context["provenance"] = provenance(args.seed)
    result.context["workload"] = args.workload
    names = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        for name, unit in PER_LAYER.items():
            result.metrics.setdefault(name, {"value": 0.0, "unit": unit})
    result.emit(list(names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
