"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
markets
    List the available market presets with their statistics.
models
    List the registered comparison models (Table IV names).
train
    Train one model on one market, print metrics, optionally checkpoint.
compare
    Run several models under the shared protocol and print a Table-IV
    style comparison.
sweep
    Fan a model × market × seed sweep across worker processes with
    results bitwise-identical to the serial loop (see
    ``docs/parallelism.md``).
profile
    Train briefly under the op profiler and print per-op / per-phase
    cost tables, writing a JSON report (see ``docs/observability.md``).
serve
    Serve trained checkpoints over HTTP: an asyncio front-end over
    forked shared-memory workers with admission control and hot reload
    (see ``docs/serving.md``).
query
    Query a running ``serve`` instance and print the JSON response;
    a comma-separated ``--endpoint`` list fans the reads out
    concurrently.
stream
    Replay a scripted streaming scenario (``repro.data.stream``)
    against a running server via ``POST /v1/ingest`` — day by day:
    relation edge churn, listings/delistings, regime switches — and
    report tick latency and fallback counts (see ``docs/streaming.md``).
db
    Query, export, summarize, or migrate into the sqlite experiment
    store (see ``docs/experiment-store.md``): ``db query``,
    ``db export``, ``db report``, ``db migrate`` — all with a
    consistent ``--format {table,json,csv}``.

``train``, ``compare``, and ``sweep`` accept ``--store PATH`` to record
every run (per-epoch losses included) in the experiment store.  The
store is also how ``compare``/``sweep`` resume: re-invoked after a crash
they execute only the runs it does not hold yet (``--no-dedup`` forces
re-execution).  ``db migrate`` ingests the per-experiment journal files
older versions wrote.

Every field of :class:`repro.core.TrainConfig` is exposed as a flag on the
training commands (``--learning-rate``, ``--weight-decay``, ...); the flag
set is generated from the dataclass so new hyperparameters appear here
automatically.  ``serve`` works the same way against
:class:`repro.serve.ServeConfig` (``--mode``, ``--slo-p99-ms``,
``--cluster-workers``, ...).

The ``train`` command is fault-tolerant: ``--checkpoint-dir`` writes
atomic, checksummed training checkpoints (optionally every N batches via
``--checkpoint-every``) and ``--resume`` continues a killed run
bitwise-identically.  See ``docs/checkpointing.md``.

Examples
--------
    python -m repro.cli markets
    python -m repro.cli train --market nasdaq-mini --model "RT-GCN (T)" \
        --epochs 8 --checkpoint /tmp/rtgcn.npz
    python -m repro.cli train --market nasdaq-mini --model "RT-GCN (T)" \
        --checkpoint-dir /tmp/ckpts --checkpoint-every 20
    python -m repro.cli train --market nasdaq-mini --model "RT-GCN (T)" \
        --checkpoint-dir /tmp/ckpts --resume
    python -m repro.cli compare --market csi-mini \
        --models "Rank_LSTM,RSR_E,RT-GCN (T)" --runs 3
    python -m repro.cli sweep --markets nasdaq-mini,csi-mini \
        --models "Rank_LSTM,RT-GCN (T)" --runs 3 --workers 4
    python -m repro.cli profile --market nasdaq-mini --model "RT-GCN (T)"
    python -m repro.cli serve --checkpoint-dir /tmp/ckpts --port 8151
    python -m repro.cli serve --checkpoint-dir /tmp/ckpts --mode cluster \
        --cluster-workers 2 --slo-p99-ms 50
    python -m repro.cli query --top-k 10 --port 8151
    python -m repro.cli query --endpoint scores,top_k,stats --port 8151
    python -m repro.cli stream --scenario smoke --port 8151 \
        --store experiments.sqlite
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .core import TrainConfig
from .serve.config import ServeConfig
from .data import MARKET_SPECS, SCENARIOS, available_markets, load_market

# The comparison models (repro.baselines), the protocol and metrics
# (repro.eval) and the experiment store (repro.store) are imported inside
# the commands that use them, so `serve` and `query` never load them.

#: CLI defaults that intentionally differ from the TrainConfig defaults
#: (quick runs suit the command line; the dataclass keeps paper values).
_CLI_DEFAULTS = {"window": 10, "epochs": 8}

#: flag spellings that differ from the mechanical --field-name form
_FIELD_FLAGS = {"num_features": ("--features", "--num-features")}

#: element type for Optional[...] fields (dataclass annotations are
#: strings under ``from __future__ import annotations``)
_OPTIONAL_TYPES = {"max_train_days": int, "early_stopping_patience": int}

_FIELD_HELP = {
    "window": "input window T",
    "num_features": "feature count D (1..4, Table VIII)",
    "alpha": "ranking-loss balance (Eq. 9)",
    "weight_decay": "L2 penalty coefficient (λ of Eq. 9)",
    "learning_rate": "Adam learning rate",
    "epochs": "training epochs",
    "grad_clip": "max gradient norm (0 disables clipping)",
    "shuffle": "shuffle training days each epoch",
    "seed": "RNG seed for shuffling and model init",
    "max_train_days": "subsample the training period to its last N days",
    "early_stopping_patience": "stop after N epochs without val improvement",
    "validation_days": "held-out tail length for early stopping",
    "graph_mode": "graph propagation backend: auto | dense | sparse "
                  "(see docs/performance.md)",
    "nan_policy": "on NaN/Inf loss: raise | ignore | rollback "
                  "(rollback needs --checkpoint-dir)",
    "max_rollbacks": "NaN-guard rollback budget before giving up",
    "dtype_policy": "numeric policy: float64 | float32 | mixed "
                    "(fp32 storage, fp64 accumulation; "
                    "see docs/performance.md)",
    "fused_kernels": "use the fused autograd kernels",
    "buffer_arena": "recycle backward buffers through the arena",
}


def _add_train_options(parser: argparse.ArgumentParser,
                       include_market: bool = True) -> None:
    """Add ``--market`` plus one flag per :class:`TrainConfig` field."""
    if include_market:
        parser.add_argument("--market", default="nasdaq-mini",
                            help="market preset (see `markets`)")
    for spec in dataclasses.fields(TrainConfig):
        flags = _FIELD_FLAGS.get(spec.name,
                                 ("--" + spec.name.replace("_", "-"),))
        default = _CLI_DEFAULTS.get(spec.name, spec.default)
        help_text = _FIELD_HELP.get(spec.name, spec.name)
        if isinstance(spec.default, bool):
            parser.add_argument(*flags, dest=spec.name,
                                action=argparse.BooleanOptionalAction,
                                default=default, help=help_text)
        else:
            arg_type = (_OPTIONAL_TYPES.get(spec.name)
                        or type(spec.default))
            parser.add_argument(*flags, dest=spec.name, type=arg_type,
                                default=default,
                                help=f"{help_text} (default: {default})")


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """``--store`` / ``--no-dedup``, shared by compare and sweep."""
    parser.add_argument("--store", default=None, metavar="DB",
                        help="record every run in this sqlite experiment "
                             "store and skip runs it already holds, so a "
                             "killed invocation resumes where it stopped "
                             "(docs/experiment-store.md)")
    parser.add_argument("--no-dedup", action="store_true",
                        help="with --store: re-execute runs even when "
                             "the store already holds them")


def _model_names(value: str) -> str:
    """argparse type for ``--model``/``--models``: every comma-separated
    name must be registered; the value passes through unchanged."""
    from .baselines import available_baselines

    names = [n.strip() for n in value.split(",") if n.strip()]
    unknown = [n for n in names if n not in available_baselines()]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown model {', '.join(map(repr, unknown)) or repr(value)}"
            f"; available: {', '.join(available_baselines())}")
    return value


def _config_from_args(args: argparse.Namespace) -> TrainConfig:
    """Build a TrainConfig from the generated flags — every field, not a
    hand-copied subset."""
    return TrainConfig(**{spec.name: getattr(args, spec.name)
                          for spec in dataclasses.fields(TrainConfig)})


#: serve flag spellings that differ from the mechanical --field-name form
#: (the first spelling is the historical flag, kept working)
_SERVE_FIELD_FLAGS = {
    "default_timeout": ("--timeout", "--default-timeout"),
    "mode": ("--mode", "--serve-mode"),
}

#: argument type for Optional[...] ServeConfig fields
_SERVE_OPTIONAL_TYPES = {
    "model": str, "market": str, "seed": int, "memory_budget_mb": float,
    "slo_p99_ms": float, "store": str,
}

_SERVE_FIELD_HELP = {
    "checkpoint_dir": "directory of checkpoint archives to serve",
    "model": "model name override for archives whose metadata does not "
             "record it",
    "market": "market override for archives whose metadata does not "
              "record it",
    "seed": "dataset regeneration seed override",
    "memory_budget_mb": "LRU-evict loaded models past this many MB of "
                        "parameters",
    "host": "bind address",
    "port": "bind port (0 = ephemeral)",
    "mode": "serving topology; cluster is the only one (docs/serving.md)",
    "cluster_workers": "forked inference workers",
    "crash_retries": "per-request worker respawn+retry budget",
    "default_timeout": "per-request deadline in seconds",
    "max_queue": "dispatch queue bound; overflow answers 429",
    "retry_after_s": "Retry-After hint sent with 429/503",
    "slo_p99_ms": "p99 latency budget; evaluated in telemetry and "
                  "recorded in the store's slo table",
    "watch_interval_s": "checkpoint-dir poll interval for hot reload",
    "tick_budget_ms": "streaming ingest tick budget; overrun serves the "
                      "last ranking instead (docs/streaming.md)",
    "stream_alpha": "graph-smoothing weight of the streaming re-rank "
                    "(0 = model scores only, 1 = neighbors only)",
    "store": "record serving telemetry + SLO row in this sqlite "
             "experiment store on shutdown",
}


def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`ServeConfig` field, generated mechanically."""
    for spec in dataclasses.fields(ServeConfig):
        flags = _SERVE_FIELD_FLAGS.get(
            spec.name, ("--" + spec.name.replace("_", "-"),))
        help_text = _SERVE_FIELD_HELP.get(spec.name, spec.name)
        if spec.name == "checkpoint_dir":
            parser.add_argument(*flags, dest=spec.name, required=True,
                                help=help_text)
        elif isinstance(spec.default, bool):
            parser.add_argument(*flags, dest=spec.name,
                                action=argparse.BooleanOptionalAction,
                                default=spec.default, help=help_text)
        else:
            arg_type = (_SERVE_OPTIONAL_TYPES.get(spec.name)
                        or type(spec.default))
            parser.add_argument(*flags, dest=spec.name, type=arg_type,
                                default=spec.default,
                                help=f"{help_text} "
                                     f"(default: {spec.default})")


def _serve_config_from_args(args: argparse.Namespace) -> ServeConfig:
    """Build a ServeConfig from the generated flags — every field."""
    return ServeConfig(**{spec.name: getattr(args, spec.name)
                          for spec in dataclasses.fields(ServeConfig)})


def cmd_markets(_: argparse.Namespace) -> int:
    print(f"{'preset':14s} {'stocks':>6s} {'industries':>10s} "
          f"{'wiki types':>10s} {'train':>6s} {'test':>5s}")
    for name in available_markets():
        spec = MARKET_SPECS[name]
        wiki = str(spec.wiki_types) if spec.wiki_types else "-"
        print(f"{name:14s} {spec.num_stocks:6d} {spec.num_industries:10d} "
              f"{wiki:>10s} {spec.train_days:6d} {spec.test_days:5d}")
    return 0


def cmd_models(_: argparse.Namespace) -> int:
    from .baselines import available_baselines, get_spec

    print(f"{'model':12s} {'category':8s} {'ranks?':6s} {'relations?':10s} "
          f"{'strategy':8s}")
    for name in available_baselines():
        spec = get_spec(name)
        print(f"{name:12s} {spec.category:8s} "
              f"{'yes' if spec.can_rank else 'no':6s} "
              f"{'yes' if spec.uses_relations else 'no':10s} "
              f"{spec.strategy or '-':8s}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .baselines import get_spec, make_predictor
    from .core.model import RTGCN_VARIANTS
    from .eval import ranking_metrics

    dataset = load_market(args.market, seed=args.seed)
    print(f"dataset: {dataset}")
    config = get_spec(args.model).adapt_config(_config_from_args(args))
    print(f"training {args.model} "
          f"({config.epochs} epochs, window {config.window}) ...")

    store_cb = None
    if args.store:
        from .store import StoreCallback
        store_cb = StoreCallback(
            args.store, f"{args.model}@{args.market}", seed=args.seed,
            config=dataclasses.asdict(config))

    wants_trainer = bool(args.checkpoint or args.checkpoint_dir
                         or args.resume or args.crash_after)
    model = None
    trainer = None
    if args.model in RTGCN_VARIANTS:
        # Build the RT-GCN directly so it can be checkpointed/resumed.
        from .core import RTGCN, Trainer
        model = RTGCN(dataset.relations, num_features=config.num_features,
                      strategy=RTGCN_VARIANTS[args.model],
                      rng=np.random.default_rng(args.seed))
        trainer = Trainer(model, dataset, config)
        callbacks = []
        resume_from = None
        if store_cb is not None:
            callbacks.append(store_cb)
        if args.checkpoint_dir:
            from .ckpt import CheckpointCallback
            callbacks.append(CheckpointCallback(
                args.checkpoint_dir,
                every_n_batches=args.checkpoint_every,
                keep_last=args.keep_last,
                metadata={"model": args.model, "market": args.market},
                recorder=(store_cb.record_checkpoint
                          if store_cb is not None else None)))
            if args.resume:
                resume_from = args.checkpoint_dir
        elif args.resume:
            raise SystemExit("--resume requires --checkpoint-dir")
        if args.crash_after:
            # Fault injection for the CI round-trip job: die mid-run the
            # way SIGKILL would (exit code repro.ckpt.CRASH_EXIT_CODE).
            from .ckpt import CrashAfterBatches
            callbacks.append(CrashAfterBatches(args.crash_after,
                                               hard=True))
        result = trainer.run(callbacks=callbacks, resume_from=resume_from)
    else:
        if wants_trainer:
            raise SystemExit("--checkpoint/--checkpoint-dir/--resume/"
                             "--crash-after are only supported for the "
                             "RT-GCN strategies")
        predictor = make_predictor(args.model, dataset, seed=args.seed)
        result = predictor.fit_predict(dataset, config)

    metrics = ranking_metrics(result.predictions, result.actuals)
    if not get_spec(args.model).can_rank:
        metrics["MRR"] = float("nan")
    print(f"train {result.train_seconds:.1f}s, "
          f"test {result.test_seconds:.2f}s")
    for key, value in metrics.items():
        rendered = "-" if np.isnan(value) else f"{value:+.4f}"
        print(f"  {key:7s} {rendered}")
    if store_cb is not None:
        store_cb.finalize(metrics, result.train_seconds,
                          result.test_seconds)
        print(f"run recorded in {store_cb.store.path} "
              f"(fingerprint {store_cb.fingerprint})")

    if args.checkpoint and trainer is not None:
        from .ckpt import save as save_ckpt
        checkpoint = trainer.state_dict()
        checkpoint.metadata = {
            "model": args.model,
            "market": args.market,
            "metrics": {k: float(v) for k, v in metrics.items()
                        if not np.isnan(v)}}
        path = save_ckpt(checkpoint, args.checkpoint)
        print(f"checkpoint written to {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .eval import run_named_experiment

    dataset = load_market(args.market, seed=args.seed)
    print(f"dataset: {dataset}")
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    config = _config_from_args(args)
    print(f"{'model':12s} {'MRR':>8s} {'IRR-1':>8s} {'IRR-5':>8s} "
          f"{'IRR-10':>8s}")
    for name in names:
        result = run_named_experiment(name, dataset, config,
                                      n_runs=args.runs,
                                      base_seed=args.seed,
                                      workers=args.workers,
                                      store=args.store or None,
                                      dedup=not args.no_dedup)
        summary = result.summary()
        cells = []
        for key in ("MRR", "IRR-1", "IRR-5", "IRR-10"):
            mean = summary[key].mean
            cells.append("-" if np.isnan(mean) else f"{mean:+.3f}")
        print(f"{name:12s} " + " ".join(f"{c:>8s}" for c in cells))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Parallel model × market × seed sweep (see docs/parallelism.md)."""
    from .parallel import run_experiments_parallel

    models = [n.strip() for n in args.models.split(",") if n.strip()]
    markets = [m.strip() for m in args.markets.split(",") if m.strip()]
    config = _config_from_args(args)
    print(f"sweep: {len(models)} model(s) × {len(markets)} market(s) × "
          f"{args.runs} run(s)")
    sweep = run_experiments_parallel(
        models, markets, config=config, n_runs=args.runs,
        base_seed=args.seed, workers=args.workers,
        dataset_seed=args.seed, task_timeout=args.task_timeout,
        store=args.store or None, dedup=not args.no_dedup)
    print(f"\n{'market':14s} {'model':12s} {'MRR':>8s} {'IRR-1':>8s} "
          f"{'IRR-5':>8s} {'IRR-10':>8s}")
    for market, model, *means in sweep.table_rows():
        cells = ["-" if np.isnan(m) else f"{m:+.3f}" for m in means]
        print(f"{market:14s} {model:12s} "
              + " ".join(f"{c:>8s}" for c in cells))
    print(f"\n{sweep.workers} worker(s), {sweep.wall_seconds:.1f}s wall, "
          f"{sweep.executed} run(s) executed, "
          f"{sweep.restored} restored")
    if sweep.telemetry is not None:
        metrics = sweep.telemetry["metrics"]
        print(f"utilization {metrics['utilization_mean']:.0%}, "
              f"retries {metrics['retries']}, "
              f"crashes {metrics['crashes']}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Train briefly with full observability and report where time goes."""
    import resource
    from dataclasses import asdict

    from .baselines import get_spec, make_predictor
    from .obs import (MetricsSink, OpProfiler, RunReport, Tracer,
                      new_run_id, use_tracer)
    from .tensor import arena_stats

    if getattr(args, "sparse", False):
        # `--sparse` forces the CSR backend so the op table attributes
        # propagation to `spmm` instead of dense `matmul`.
        args.graph_mode = "sparse"
    dataset = load_market(args.market, seed=args.seed)
    print(f"dataset: {dataset}")
    config = get_spec(args.model).adapt_config(_config_from_args(args))
    print(f"profiling {args.model} ({config.epochs} epochs, "
          f"window {config.window}, graph mode {config.graph_mode}) ...")

    profiler = OpProfiler()
    tracer = Tracer()
    minflt_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with use_tracer(tracer), profiler:
        predictor = make_predictor(args.model, dataset, seed=args.seed)
        result = predictor.fit_predict(dataset, config)
    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt_start

    phases = tracer.snapshot()
    # Minor page faults of the whole profiled fit+predict per optimizer
    # step: the allocator's cost, which no op row shows (0.0 for models
    # that take no steps).
    steps = phases.get("optimizer_step", {}).get("count", 0)
    heap = {"heap_retained": arena_stats()["heap_retained"],
            "minflt_per_step": minflt / steps if steps else 0.0}

    print(f"\ntrain {result.train_seconds:.1f}s, "
          f"test {result.test_seconds:.2f}s")
    print(f"\nTop {args.top} ops by wall-clock "
          f"(total {profiler.total_seconds():.2f}s attributed)")
    print(profiler.table(top=args.top))
    print(f"heap: retained={'yes' if heap['heap_retained'] else 'no'} "
          f"minflt_per_step={heap['minflt_per_step']:.1f}")

    print(f"\n{'phase':16s} {'count':>9s} {'seconds':>10s}")
    print("-" * 37)
    for name, stat in sorted(phases.items(),
                             key=lambda kv: -kv[1]["seconds"]):
        print(f"{name:16s} {stat['count']:9d} {stat['seconds']:10.4f}")

    arena = profiler.arena_summary()
    report = RunReport(
        run_id=new_run_id("profile"), kind="profile",
        config={"market": args.market, "model": args.model,
                **asdict(config)},
        epoch_losses=[float(x) for x
                      in result.extras.get("epoch_losses", [])],
        phases=phases, ops=profiler.as_rows(),
        metrics={"train_seconds": result.train_seconds,
                 "test_seconds": result.test_seconds,
                 "arena_hit_rate": arena["hit_rate"],
                 "arena_hits": arena["hits"],
                 "arena_misses": arena["misses"],
                 "arena_bytes_reused": arena["bytes_reused"],
                 **heap})
    if args.json_path is not None:
        import json
        path = Path(args.json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
    else:
        path = MetricsSink(Path.cwd()).write(report)
    print(f"\nJSON report written to {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve checkpoints over HTTP (see docs/serving.md).

    The whole stack comes from :func:`repro.serve.build`, so this
    command contains zero construction logic of its own.
    """
    from .serve import build

    config = _serve_config_from_args(args)
    handle = build(config)
    available = handle.service.registry.discover()
    if not available:
        handle.close()
        raise SystemExit(f"no checkpoints in {config.checkpoint_dir}; run "
                         "`repro.cli train --checkpoint-dir ...` first")
    handle.start()
    # A server started with `&` from a non-interactive shell inherits
    # SIGINT as ignored; restore it so `kill -INT` still shuts down
    # cleanly (and persists the telemetry).  SIGTERM — what `kill`,
    # systemd and docker send — takes the same path.  The workers are
    # already forked and keep the default handlers.  Both handlers are
    # in place before the banner, so a caller that signals as soon as
    # it reads the banner always gets the clean shutdown.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    host, port = handle.address
    print(f"serving {len(available)} checkpoint(s) from "
          f"{config.checkpoint_dir} on http://{host}:{port} "
          f"(mode: {config.mode})")
    print(f"  workers: {config.cluster_workers} (shared-memory "
          f"weights, hot reload every {config.watch_interval_s:g}s)")
    # flushed: with stdout on a pipe the banner would otherwise sit in
    # the buffer until exit, and a supervisor waiting on it would hang
    print("  endpoints: /v1/health /v1/models /v1/scores /v1/top_k "
          "/v1/rank /v1/delta /v1/stats /v1/reload", flush=True)
    try:
        handle.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        handle.close()
        if config.store:
            print(f"serving telemetry + SLO recorded in {config.store}")
    return 0


#: query endpoints → their /v1 paths (also the --endpoint vocabulary)
_QUERY_PATHS = {"top_k": "/v1/top_k", "scores": "/v1/scores",
                "rank": "/v1/rank", "delta": "/v1/delta",
                "stats": "/v1/stats", "models": "/v1/models",
                "health": "/v1/health", "reload": "/v1/reload"}


def cmd_query(args: argparse.Namespace) -> int:
    """Query a running server, printed as JSON.

    ``--endpoint`` accepts a comma-separated list; multiple endpoints
    are fetched concurrently on one asyncio event loop
    (:mod:`repro.serve.client`) and printed as one JSON object keyed by
    endpoint, so a dashboard poll is a single command.
    """
    import json

    from repro.serve.client import ClientConnectError, fetch_endpoints

    endpoints = list(dict.fromkeys(
        e.strip() for e in args.endpoint.split(",") if e.strip()))
    unknown = sorted(set(endpoints) - set(_QUERY_PATHS))
    if unknown:
        raise SystemExit(f"unknown endpoint(s) {unknown}; choose from "
                         f"{sorted(_QUERY_PATHS)}")
    if not endpoints:
        raise SystemExit("no endpoints given")
    params = {}
    if args.top_k is not None:
        params["k"] = args.top_k
    if args.version:
        params["version"] = args.version
    if args.day is not None:
        params["day"] = args.day

    try:
        payloads = fetch_endpoints(
            args.host, args.port,
            {endpoint: _QUERY_PATHS[endpoint] for endpoint in endpoints},
            params=params, timeout=args.timeout,
            concurrency=max(1, min(args.concurrency, len(endpoints))))
    except ClientConnectError as exc:
        raise SystemExit(f"query failed: {exc} (is `repro.cli serve` "
                         f"running on {args.host}:{args.port}?)")
    if len(endpoints) == 1:
        payload = payloads[endpoints[0]]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if "error" not in payload else 1
    print(json.dumps(payloads, indent=2, sort_keys=True))
    return 0 if not any("error" in p for p in payloads.values()) else 1


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a streaming scenario against a live server's /v1/ingest.

    The scenario's stock count is adapted to the served universe
    (discovered from ``/v1/scores``) so event indices always address
    real slots.  With ``--store``, the replay is recorded under the
    scenario fingerprint — a second replay of the identical scenario is
    skipped unless ``--no-dedup`` forces it.
    """
    import json
    import time
    from urllib.error import URLError
    from urllib.request import Request, urlopen

    from .data import StreamingMarket, get_scenario

    base = f"http://{args.host}:{args.port}"
    query = f"?version={args.version}" if args.version else ""
    try:
        with urlopen(base + "/v1/scores" + query,
                     timeout=args.timeout) as response:
            scores = json.loads(response.read().decode("utf-8"))
    except URLError as exc:
        raise SystemExit(f"stream failed: {exc} (is `repro.cli serve` "
                         f"running on {args.host}:{args.port}?)")
    universe = len(scores.get("scores") or ())
    if universe < 2:
        raise SystemExit("served universe too small to stream against")
    overrides = {"num_stocks": universe}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.days is not None:
        overrides["num_days"] = args.days
    scenario = get_scenario(args.scenario, **overrides)
    fingerprint = scenario.fingerprint()
    report_id = f"stream-{fingerprint[:16]}"

    store = None
    if args.store:
        from .store import ExperimentStore
        store = ExperimentStore(args.store)
        recorded = store.execute(
            "SELECT 1 FROM telemetry WHERE report_id = ?", [report_id])
        if recorded and not args.no_dedup:
            print(f"scenario {args.scenario!r} already replayed "
                  f"(fingerprint {fingerprint[:16]}, report "
                  f"{report_id}); --no-dedup forces a re-run")
            store.close()
            return 0

    market = StreamingMarket(scenario)
    print(f"streaming {args.scenario!r}: {universe} stocks, "
          f"{scenario.num_days} day(s) -> {base}/v1/ingest")
    ticks = fallbacks = overruns = edits = 0
    latencies = []
    last = None
    for events in market.replay():
        body = json.dumps(events.to_payload()).encode("utf-8")
        request = Request(base + "/v1/ingest" + query, data=body,
                          headers={"Content-Type": "application/json"},
                          method="POST")
        started = time.perf_counter()
        try:
            with urlopen(request, timeout=args.timeout) as response:
                last = json.loads(response.read().decode("utf-8"))
        except URLError as exc:
            raise SystemExit(f"ingest failed on day {events.day}: {exc}")
        latencies.append(time.perf_counter() - started)
        ticks += 1
        fallbacks += int(bool(last.get("fallback")))
        overruns += int(bool(last.get("overrun")))
        edits += int(last.get("applied_edits", 0))

    lat = np.asarray(latencies, dtype=float)
    p50, p99 = (float(v) for v in np.percentile(lat, (50.0, 99.0)))
    print(f"  {ticks} tick(s): {edits} edge edit(s), "
          f"{fallbacks} fallback(s), {overruns} overrun(s)")
    print(f"  client tick latency p50 {p50 * 1e3:.2f}ms  "
          f"p99 {p99 * 1e3:.2f}ms  max {float(lat.max()) * 1e3:.2f}ms")
    ranking = (last or {}).get("ranking") or []
    if ranking:
        head = ", ".join(f"{r['symbol']}:{r['score']:+.3f}"
                         for r in ranking[:5])
        print(f"  final ranking head: {head}")

    if store is not None:
        from .obs import RunReport
        report = RunReport(
            run_id=report_id, kind="stream",
            config={"scenario": scenario.to_dict(),
                    "fingerprint": fingerprint, "server": base},
            metrics={"ticks": float(ticks),
                     "fallbacks": float(fallbacks),
                     "overruns": float(overruns),
                     "applied_edits": float(edits),
                     "tick_p50_ms": p50 * 1e3,
                     "tick_p99_ms": p99 * 1e3})
        store.record_report(report)
        from .store.schema import latency_histogram
        store.record_slo(
            {"requests": ticks,
             "latency_seconds": {"p50": p50,
                                 "p95": float(np.percentile(lat, 95.0)),
                                 "p99": p99},
             "latency_hist_ms": latency_histogram(lat)},
            source="stream-client", op="ingest", report_id=report_id)
        print(f"replay recorded in {store.path} (report {report_id})")
        store.close()
    return 0 if fallbacks == 0 else 2


def _db_filters(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name
            in ("experiment", "model", "market", "kind", "fingerprint",
                "source")
            if getattr(args, name, None) is not None}


def _open_store(args: argparse.Namespace):
    from .store import ExperimentStore
    path = Path(args.db)
    if not path.exists() and args.db_command != "migrate":
        raise SystemExit(f"no experiment store at {path}; create one with "
                         "`sweep --store`, `train --store`, or "
                         "`db migrate`")
    return ExperimentStore(path)


def cmd_db(args: argparse.Namespace) -> int:
    """Dispatch ``db query/export/report/migrate``."""
    import json

    from .store import (aggregate_runs, metric_names, migrate, query_runs,
                        render_rows, store_report)

    store = _open_store(args)
    if args.db_command == "migrate":
        stats = migrate(store, [Path(s) for s in args.sources])
        for key, value in stats.to_dict().items():
            print(f"{key:20s} {value}")
        return 0

    if args.db_command == "report":
        payload = store_report(store)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"store: {payload['path']}")
            print("\ntables")
            print(render_rows([payload["tables"]], args.format))
            if payload["experiments"]:
                print("\nexperiments")
                print(render_rows(payload["experiments"], args.format))
            if payload["telemetry_kinds"]:
                print("\ntelemetry")
                print(render_rows([payload["telemetry_kinds"]],
                                  args.format))
            if payload["slo"]:
                print("\nslo (per source × endpoint)")
                print(render_rows(payload["slo"], args.format))
        return 0

    filters = _db_filters(args)
    names = ([m.strip() for m in args.metrics.split(",") if m.strip()]
             if args.metrics else metric_names(store, **filters))
    if args.db_command == "query" and args.aggregate:
        group_by = tuple(g.strip() for g in args.group_by.split(",")
                         if g.strip())
        rows = [{**dict(zip(group_by, agg.group)), "metric": agg.metric,
                 "runs": agg.count, "mean": agg.mean, "std": agg.std,
                 "min": agg.minimum, "max": agg.maximum}
                for agg in aggregate_runs(store, metrics=names,
                                          group_by=group_by, **filters)]
    else:
        rows = [run.row(names) for run in query_runs(store, **filters)]

    rendered = render_rows(rows, args.format)
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(rendered + "\n")
        print(f"{len(rows)} row(s) written to {output}")
    else:
        print(rendered)
    return 0


class _ExactFlagParser(argparse.ArgumentParser):
    """No flag prefixes (``--mod`` must not mean ``--model``); subparsers
    inherit the class, so this holds for every command."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _ExactFlagParser(
        prog="repro", description="RT-GCN reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("markets", help="list market presets")
    sub.add_parser("models", help="list comparison models")

    train = sub.add_parser("train", help="train one model on one market")
    _add_train_options(train)
    train.add_argument("--model", default="RT-GCN (T)", type=_model_names,
                       help="model name (see `models`)")
    train.add_argument("--checkpoint", default=None,
                       help="write a final RT-GCN checkpoint here")
    train.add_argument("--checkpoint-dir", default=None,
                       help="checkpoint the run into this directory "
                            "(atomic, checksummed, keep-last-k; see "
                            "docs/checkpointing.md)")
    train.add_argument("--checkpoint-every", type=int, default=None,
                       metavar="N",
                       help="also checkpoint every N batches "
                            "(default: epoch boundaries only)")
    train.add_argument("--keep-last", type=int, default=3,
                       help="periodic checkpoints to retain (best is "
                            "kept in addition)")
    train.add_argument("--resume", action="store_true",
                       help="resume from the newest valid checkpoint in "
                            "--checkpoint-dir (bitwise-identical to an "
                            "uninterrupted run)")
    train.add_argument("--crash-after", type=int, default=None,
                       metavar="N",
                       help="fault injection: hard-exit after N batches "
                            "(for testing checkpoint recovery)")
    train.add_argument("--store", default=None, metavar="DB",
                       help="record the run (per-epoch losses, metrics, "
                            "checkpoint writes) in this sqlite "
                            "experiment store")

    compare = sub.add_parser("compare", help="compare several models")
    _add_train_options(compare)
    compare.add_argument("--models", type=_model_names,
                         default="Rank_LSTM,RSR_E,RT-GCN (T)",
                         help="comma-separated model names")
    compare.add_argument("--runs", type=int, default=3,
                         help="repeated runs per model")
    compare.add_argument("--workers", type=int, default=1,
                         help="fan each model's runs across N worker "
                              "processes (results identical to serial; "
                              "see docs/parallelism.md)")
    _add_store_options(compare)

    sweep = sub.add_parser(
        "sweep", help="parallel model × market × seed sweep "
                      "(docs/parallelism.md)")
    _add_train_options(sweep, include_market=False)
    sweep.add_argument("--markets", default="nasdaq-mini",
                       help="comma-separated market presets")
    sweep.add_argument("--models", default="Rank_LSTM,RSR_E,RT-GCN (T)",
                       type=_model_names,
                       help="comma-separated model names (see `models`)")
    sweep.add_argument("--runs", type=int, default=3,
                       help="repeated seeded runs per (model, market) "
                            "cell")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: one per CPU, "
                            "capped at the number of runs)")
    sweep.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill and retry a run stuck longer than "
                            "this (default: no hang detection)")
    _add_store_options(sweep)

    serve = sub.add_parser(
        "serve", help="serve checkpoints over HTTP (docs/serving.md)")
    _add_serve_options(serve)

    query = sub.add_parser(
        "query", help="query a running `serve` instance, print JSON")
    query.add_argument("--endpoint", default="top_k",
                       help="comma-separated APIs to call — multiple "
                            "endpoints are fetched concurrently: "
                            "top_k, scores, rank, delta, stats, models, "
                            "health, reload (default: top_k)")
    query.add_argument("--concurrency", type=int, default=4,
                       help="fan-out threads for multi-endpoint queries "
                            "(default: 4)")
    query.add_argument("--top-k", type=int, default=None, metavar="K",
                       help="k for the top_k endpoint")
    query.add_argument("--version", default=None,
                       help="checkpoint version (default: server's best)")
    query.add_argument("--day", type=int, default=None,
                       help="trading day index (default: latest)")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=8151)
    query.add_argument("--timeout", type=float, default=30.0)

    stream = sub.add_parser(
        "stream", help="replay a streaming scenario against a running "
                       "`serve` instance (docs/streaming.md)")
    stream.add_argument("--scenario", default="default",
                        choices=sorted(SCENARIOS),
                        help="scripted scenario; its stock count adapts "
                             "to the served universe (default: default)")
    stream.add_argument("--seed", type=int, default=None,
                        help="override the scenario's event seed")
    stream.add_argument("--days", type=int, default=None,
                        help="override the scenario's day count")
    stream.add_argument("--version", default=None,
                        help="checkpoint version (default: server's "
                             "best)")
    stream.add_argument("--host", default="127.0.0.1")
    stream.add_argument("--port", type=int, default=8151)
    stream.add_argument("--timeout", type=float, default=30.0)
    _add_store_options(stream)

    db = sub.add_parser(
        "db", help="query/export/report/migrate the sqlite experiment "
                   "store (docs/experiment-store.md)")
    db.add_argument("--db", default="experiments.sqlite", metavar="PATH",
                    help="experiment store path "
                         "(default: ./experiments.sqlite)")
    db_sub = db.add_subparsers(dest="db_command", required=True)

    def _add_db_common(p, formats=("table", "json", "csv")):
        p.add_argument("--format", default=formats[0], choices=formats,
                       help=f"output format (default: {formats[0]})")

    def _add_db_filter_flags(p):
        p.add_argument("--experiment", default=None,
                       help="exact experiment name, e.g. "
                            "'Rank_LSTM@nasdaq-mini'")
        p.add_argument("--model", default=None, help="model name filter")
        p.add_argument("--market", default=None,
                       help="market preset filter")
        p.add_argument("--kind", default=None,
                       help="run kind: experiment | train | grid")
        p.add_argument("--source", default=None,
                       help="row provenance: live | journal-v2 | "
                            "migrated")
        p.add_argument("--fingerprint", default=None,
                       help="config fingerprint filter")
        p.add_argument("--metrics", default=None,
                       help="comma-separated metric columns (default: "
                            "all present)")

    db_query = db_sub.add_parser(
        "query", help="print matching runs (or aggregates)")
    _add_db_filter_flags(db_query)
    _add_db_common(db_query)
    db_query.add_argument("--aggregate", action="store_true",
                          help="mean/std/min/max per group instead of "
                               "per-run rows")
    db_query.add_argument("--group-by", default="experiment",
                          help="comma-separated grouping fields for "
                               "--aggregate (default: experiment)")

    db_export = db_sub.add_parser(
        "export", help="dump matching runs to a file or stdout")
    _add_db_filter_flags(db_export)
    _add_db_common(db_export, formats=("json", "csv", "table"))
    db_export.add_argument("--output", default=None, metavar="FILE",
                           help="write here instead of stdout")

    db_report = db_sub.add_parser(
        "report", help="table counts and per-experiment summary")
    _add_db_common(db_report, formats=("table", "json"))

    db_migrate = db_sub.add_parser(
        "migrate", help="ingest journal-v2 / obs-report / bench JSON "
                        "files (idempotent)")
    db_migrate.add_argument("sources", nargs="+", metavar="PATH",
                            help="JSON files or directories of them")

    profile = sub.add_parser(
        "profile", help="profile per-op and per-phase cost of a short run")
    _add_train_options(profile)
    profile.add_argument("--model", default="RT-GCN (T)",
                         type=_model_names,
                         help="model name (see `models`)")
    profile.add_argument("--top", type=int, default=15,
                         help="rows of the op table to print")
    profile.add_argument("--sparse", action="store_true",
                         help="force graph_mode=sparse so the op profiler "
                              "attributes spmm separately from dense matmul")
    profile.add_argument("--json", dest="json_path", default=None,
                         help="write the JSON report here "
                              "(default: ./<run_id>.json)")
    # A profile wants a quick, representative run, not a converged model.
    profile.set_defaults(epochs=2, max_train_days=40)
    return parser


#: subcommands whose flags build a TrainConfig
_TRAIN_COMMANDS = ("train", "compare", "sweep", "profile")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _TRAIN_COMMANDS:
        # TrainConfig validation is the gate; a value it rejects is a
        # usage error (exit 2), not a traceback.
        try:
            _config_from_args(args)
        except ValueError as exc:
            parser.error(f"{args.command}: {exc}")
    handlers = {
        "markets": cmd_markets,
        "models": cmd_models,
        "train": cmd_train,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "profile": cmd_profile,
        "serve": cmd_serve,
        "query": cmd_query,
        "stream": cmd_stream,
        "db": cmd_db,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `db export | head`); devnull
        # the stream so the interpreter's shutdown flush stays quiet.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
