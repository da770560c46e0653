"""Sparse-kernel acceptance benchmark: RT-GCN at paper-scale sparsity.

The mini presets used by the other benches are *dense* graphs (13–17% of
stock pairs related), where the CSR path has nothing to win.  This bench
builds a simulated universe at the paper's scale and sparsity — 500 stocks,
≤5% of pairs related (Table III reports 0.3–7% per relation class on the
full markets) — and checks the three claims the sparse subsystem makes:

1. **Speed** — one RT-GCN (T) training epoch is at least 2× faster under
   ``graph_mode="sparse"`` than under ``"dense"``.
2. **Numerics** — the two backends train identically: per-epoch losses
   match to float64 round-off, because every sparse op is entry-identical
   to its dense counterpart (see ``docs/performance.md``).
3. **Attribution** — an :class:`repro.obs.OpProfiler` run shows the sparse
   backend spending its propagation time in ``spmm``/``sddmm`` while the
   dense backend spends it in ``matmul``, i.e. the speedup comes from the
   kernels this subsystem introduced, not from a protocol difference.

Artifacts: ``benchmarks/results/sparse_scale.txt`` (timing + op tables)
and ``sparse_scale.json`` (telemetry, including the profiler rows).
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.core import RTGCN, Trainer
from repro.data import load_market
from repro.graph import reset_adjacency_cache
from repro.obs import OpProfiler

from _harness import (BENCH_SEED, bench_config, format_table, publish,
                      publish_result)

#: acceptance scale: ≥500 stocks at ≤5% graph density
SCALE_STOCKS = int(os.environ.get("RTGCN_BENCH_SCALE_STOCKS", "500"))
MAX_DENSITY = 0.05
MIN_SPEEDUP = 2.0

#: kept short — the claim is per-epoch cost, not convergence
TRAIN_DAYS = int(os.environ.get("RTGCN_BENCH_SCALE_DAYS", "25"))


def scale_dataset():
    """A paper-sparsity universe built from the full NASDAQ preset."""
    return load_market("nasdaq", seed=BENCH_SEED, spec_overrides=dict(
        num_stocks=SCALE_STOCKS, num_industries=60,
        industry_pair_ratio=0.025, wiki_types=20, wiki_pair_ratio=0.003,
        train_days=TRAIN_DAYS, test_days=10))


def build_model(dataset, config, mode):
    reset_adjacency_cache()
    model = RTGCN(dataset.relations, num_features=config.num_features,
                  strategy="time", graph_mode=mode,
                  rng=np.random.default_rng(BENCH_SEED))
    return Trainer(model, dataset, replace(config, graph_mode=mode))


def timed_epoch(dataset, config, mode):
    """One unprofiled training epoch; returns (seconds, epoch losses)."""
    trainer = build_model(dataset, config, mode)
    start = time.perf_counter()
    losses = trainer.fit()
    return time.perf_counter() - start, losses


def profiled_ops(dataset, config, mode, days=4):
    """Short profiled run; returns the op rows sorted by seconds."""
    trainer = build_model(dataset, config, mode)
    trainer.config = replace(trainer.config, max_train_days=days)
    with OpProfiler() as prof:
        trainer.fit()
    return prof


def test_sparse_scale_speed_and_parity():
    dataset = scale_dataset()
    n = dataset.relations.num_stocks
    mask = dataset.relations.binary_adjacency()
    density = ((mask != 0).sum() + n) / (n * n)   # incl. the added loops
    assert n >= 500
    assert density <= MAX_DENSITY, (
        f"universe too dense for the acceptance claim: {density:.4f}")

    config = bench_config(epochs=1, window=10,
                          early_stopping_patience=None)

    seconds, losses = {}, {}
    for mode in ("dense", "sparse"):
        seconds[mode], losses[mode] = timed_epoch(dataset, config, mode)
    speedup = seconds["dense"] / seconds["sparse"]
    loss_gap = float(np.max(np.abs(
        np.subtract(losses["dense"], losses["sparse"]))))

    profilers = {mode: profiled_ops(dataset, config, mode)
                 for mode in ("dense", "sparse")}
    # aggregate forward+backward seconds per op name
    op_totals = {}
    for mode, prof in profilers.items():
        totals = {}
        for row in prof.as_rows():
            totals[row["op"]] = totals.get(row["op"], 0.0) + row["seconds"]
        op_totals[mode] = totals

    rows = [[mode, f"{seconds[mode]:.2f}s",
             f"{op_totals[mode].get('matmul', 0.0):.2f}s",
             f"{op_totals[mode].get('spmm', 0.0) + op_totals[mode].get('sddmm', 0.0):.2f}s"]
            for mode in ("dense", "sparse")]
    sections = [format_table(
        f"Sparse scale — RT-GCN (T), {n} stocks, density {density:.3f}, "
        f"{TRAIN_DAYS}-day epoch",
        ["Backend", "Epoch", "matmul (4-day profile)",
         "spmm+sddmm (4-day profile)"], rows,
        note=(f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP}x); max epoch-"
              f"loss gap {loss_gap:.2e}"))]
    for mode, prof in profilers.items():
        sections.append(f"\nTop ops, {mode} backend (4-day profile)\n"
                        + prof.table(top=10))
    publish("sparse_scale", "\n".join(sections))
    publish_result("sparse_scale", {
        "num_stocks": n,
        "graph_density": float(density),
        "train_days": TRAIN_DAYS,
        "epoch_seconds": seconds,
        "speedup": speedup,
        "epoch_losses": {mode: [float(x) for x in ls]
                         for mode, ls in losses.items()},
        "max_loss_gap": loss_gap,
        "ops": {mode: prof.as_rows()
                for mode, prof in profilers.items()},
    }, dataset=dataset, window=config.window)

    # 1. speed: the CSR path wins by at least 2x at paper sparsity.
    assert speedup >= MIN_SPEEDUP, (
        f"sparse epoch only {speedup:.2f}x faster than dense")
    # 2. numerics: identical training trajectories to float64 round-off.
    assert np.allclose(losses["dense"], losses["sparse"],
                       rtol=1e-9, atol=1e-12), (
        f"dense/sparse training diverged: max gap {loss_gap:.3e}")
    # 3. attribution: propagation moved from dense matmul into spmm.
    assert "spmm" not in op_totals["dense"]
    assert op_totals["sparse"].get("spmm", 0.0) > 0.0
    assert op_totals["sparse"].get("sddmm", 0.0) > 0.0
    assert (op_totals["dense"].get("matmul", 0.0)
            > 2.0 * op_totals["sparse"].get("matmul", 0.0))


def test_sparse_scale_fused_fp32_addendum():
    """Sparse backend under the PR's numerics knobs: fp64-unfused vs
    fp64-fused (bitwise) vs fp32-fused, with before/after per-op tables.

    No speed floor is asserted here: the CSR kernels are index-bound, so
    narrowing the value dtype buys less than it does on the dense path
    (the 1.5x dense floor lives in bench_fig5_speed).  This bench pins the
    numerics claims at paper sparsity and publishes the fused-vs-unfused
    op attribution for the store.
    """
    dataset = scale_dataset()
    config = bench_config(epochs=1, window=10,
                          early_stopping_patience=None,
                          graph_mode="sparse")
    variants = {
        "fp64 unfused": replace(config, dtype_policy="float64",
                                fused_kernels=False),
        "fp64 fused": replace(config, dtype_policy="float64",
                              fused_kernels=True),
        "fp32 fused": replace(config, dtype_policy="float32",
                              fused_kernels=True),
    }

    seconds, losses, profilers = {}, {}, {}
    for name, cfg in variants.items():
        trainer = build_model(dataset, cfg, "sparse")
        start = time.perf_counter()
        losses[name] = [float(x) for x in trainer.fit()]
        seconds[name] = time.perf_counter() - start
        prof_trainer = build_model(
            dataset, replace(cfg, max_train_days=4), "sparse")
        with OpProfiler() as prof:
            prof_trainer.fit()
        profilers[name] = prof

    fp32_gap = float(np.max(np.abs(
        np.subtract(losses["fp32 fused"], losses["fp64 unfused"]))
        / np.abs(losses["fp64 unfused"])))

    rows = [[name, f"{seconds[name]:.2f}s",
             f"{seconds['fp64 unfused'] / seconds[name]:.2f}x",
             f"{losses[name][0]:.6e}"]
            for name in variants]
    sections = [format_table(
        "Sparse scale addendum — fused kernels & dtype policy "
        f"({dataset.relations.num_stocks} stocks, CSR backend)",
        ["Variant", "Epoch", "vs fp64 unfused", "Epoch loss"], rows,
        note=f"fp32 relative loss gap {fp32_gap:.2e}")]
    for name, prof in profilers.items():
        sections.append(f"\nTop ops, {name} (4-day profile)\n"
                        + prof.table(top=10))
    publish("sparse_scale_fused", "\n".join(sections))
    publish_result("sparse_scale_fused", {
        "num_stocks": dataset.relations.num_stocks,
        "epoch_seconds": seconds,
        "epoch_losses": losses,
        "fp32_relative_loss_gap": fp32_gap,
        "ops": {name: prof.as_rows()
                for name, prof in profilers.items()},
    }, dataset=dataset, window=config.window,
        dtype_policy=sorted({c.dtype_policy for c in variants.values()}))

    # fusion is bitwise-neutral under float64, on the sparse path too
    assert losses["fp64 fused"] == losses["fp64 unfused"]
    # fp32 stays within the documented tolerance (docs/performance.md)
    assert fp32_gap <= 1e-3, fp32_gap
    # the fused profile attributes propagation to the fused node
    fused_ops = {row["op"] for row in profilers["fp64 fused"].as_rows()}
    assert "gcn_propagate_fused" in fused_ops
    unfused_ops = {row["op"]
                   for row in profilers["fp64 unfused"].as_rows()}
    assert "gcn_propagate_fused" not in unfused_ops
