"""Parallel (model × market × seed) sweep orchestration.

The paper's evaluation protocol is embarrassingly parallel: Table IV
alone is ~10 models × 3 markets × 15 seeded runs, and every cell of that
matrix is an independent, self-seeded training run.
:func:`run_experiments_parallel` flattens the whole matrix into single
``(model, market, run_index)`` tasks and fans them out through one
:class:`~repro.parallel.ExperimentPool`, so a 4-worker sweep keeps all
four cores busy even while the last long model of one market is
finishing.

Determinism contract: each run's seed is ``base_seed * 1000 +
run_index`` and the predictor is built by the same
:func:`repro.baselines.make_predictor` call as the serial protocol, so
every per-cell :class:`~repro.eval.ExperimentResult` is bitwise-equal to
what :func:`repro.eval.run_named_experiment` produces serially.

Datasets are loaded once in the parent *before* the workers fork, so the
feature/relation arrays are shared copy-on-write — never re-pickled per
run.  With ``store``, each completed run is recorded in the experiment
store under its cell's protocol fingerprint as it arrives; a killed
sweep resumes with only the missing runs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .pool import ExperimentPool, fork_available, resolve_workers


@dataclass(frozen=True)
class RunSpec:
    """One schedulable unit: a single seeded run of one model/market."""

    model: str
    market: str
    run_index: int
    seed: int


@dataclass
class SweepResult:
    """Per-cell experiment results plus executor telemetry."""

    #: ``(model, market) -> ExperimentResult`` (bitwise-equal to serial)
    results: Dict[Tuple[str, str], "object"]
    workers: int
    wall_seconds: float
    #: schema-v1 executor report dict (``None`` for fully-restored or
    #: serial sweeps)
    telemetry: Optional[Dict[str, object]] = field(default=None,
                                                   repr=False)
    #: runs actually trained this invocation (0 when the store already
    #: held every row — the dedup acceptance criterion)
    executed: int = 0
    #: runs restored from the experiment store
    restored: int = 0

    def cells(self) -> List[Tuple[str, str]]:
        return list(self.results)

    def table_rows(self, metrics: Sequence[str] = ("MRR", "IRR-1",
                                                   "IRR-5", "IRR-10")
                   ) -> List[List[object]]:
        """``[market, model, *metric means]`` rows in sweep order."""
        rows = []
        for (model, market), result in self.results.items():
            rows.append([market, model]
                        + [result.mean(metric) for metric in metrics])
        return rows


def run_experiments_parallel(
        models: Sequence[str], markets: Sequence[str], *,
        config: Optional["object"] = None, n_runs: int = 3,
        base_seed: int = 0, workers: Optional[int] = None,
        dataset_seed: int = 0, top_ns: Sequence[int] = (1, 5, 10),
        max_attempts: int = 3, task_timeout: Optional[float] = None,
        store: Optional[object] = None, dedup: bool = True
        ) -> SweepResult:
    """Run every (model, market) cell ``n_runs`` times, in parallel.

    Parameters mirror :func:`repro.eval.run_named_experiment`; the sweep
    simply schedules all cells' runs through one worker pool instead of
    nesting sequential loops.  ``workers=None`` uses one worker per CPU
    (capped at the number of runs); ``workers=1`` — or a platform
    without ``fork`` — degrades to a serial loop with identical results.

    ``store`` (an :class:`~repro.store.ExperimentStore` or a path)
    records every completed run and the executor report in the
    experiment database, and with ``dedup=True`` restores runs already
    stored under each cell's config fingerprint instead of executing
    them: re-running a finished (or killed) sweep trains only what is
    missing and returns identical (bitwise) metrics.  ``dedup=False``
    forces re-execution (results overwrite the stored rows).  See
    docs/experiment-store.md.

    Returns a :class:`SweepResult` whose per-cell
    :class:`~repro.eval.ExperimentResult` objects are bitwise-equal to
    serial ``run_named_experiment`` calls (``last_result`` is not
    carried across processes and is always ``None`` here).
    """
    from ..baselines.registry import get_spec, make_predictor
    from ..core.trainer import TrainConfig
    from ..data import load_market
    from ..eval.metrics import ranking_metrics
    from ..eval.protocol import (ExperimentResult, _experiment_fingerprint,
                                 _stored_rows)

    models = [str(m) for m in models]
    markets = [str(m) for m in markets]
    if not models or not markets:
        raise ValueError("models and markets must both be non-empty")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    base = config if config is not None else TrainConfig()
    adapted = {model: get_spec(model).adapt_config(base)
               for model in models}
    can_rank = {model: get_spec(model).can_rank for model in models}

    started = time.perf_counter()
    # Load every market once in the parent; forked workers inherit the
    # arrays copy-on-write instead of re-pickling them per run.
    datasets = {market: load_market(market, seed=dataset_seed)
                for market in markets}

    cells = [(model, market) for market in markets for model in models]
    fingerprints = {model: _experiment_fingerprint(adapted[model], n_runs,
                                                   base_seed)
                    for model in models}
    rows: Dict[Tuple[str, str], Dict[int, Dict[str, object]]] = {
        cell: {} for cell in cells}
    if store is not None:
        from ..store.db import as_store

        store = as_store(store)
        if dedup:
            for model, market in cells:
                rows[(model, market)] = _stored_rows(
                    store, fingerprints[model], f"{model}@{market}",
                    n_runs)

    specs: List[RunSpec] = []
    for model, market in cells:
        for run_index in range(n_runs):
            if run_index not in rows[(model, market)]:
                specs.append(RunSpec(model, market, run_index,
                                     base_seed * 1000 + run_index))
    restored = len(cells) * n_runs - len(specs)

    def run_spec(task: int):
        spec = specs[task]
        dataset = datasets[spec.market]
        run_cfg = replace(adapted[spec.model], seed=spec.seed)
        predictor = make_predictor(spec.model, dataset, seed=spec.seed)
        result = predictor.fit_predict(dataset, run_cfg)
        metrics = ranking_metrics(result.predictions, result.actuals,
                                  top_ns=top_ns)
        if not can_rank[spec.model]:
            metrics["MRR"] = float("nan")
        return (metrics, float(result.train_seconds),
                float(result.test_seconds))

    def on_result(task: int, payload) -> None:
        spec = specs[task]
        metrics, train_s, test_s = payload
        rows[(spec.model, spec.market)][spec.run_index] = {
            "metrics": metrics, "train_seconds": train_s,
            "test_seconds": test_s}
        if store is not None:
            store.record_run(
                f"{spec.model}@{spec.market}", fingerprints[spec.model],
                spec.run_index, dict(metrics), seed=spec.seed,
                train_seconds=train_s, test_seconds=test_s,
                config=asdict(adapted[spec.model]), n_runs=n_runs,
                base_seed=base_seed)

    n_workers = resolve_workers(workers, len(specs))
    telemetry = None
    if specs:
        if n_workers > 1 and fork_available():
            pool = ExperimentPool(n_workers, run_spec,
                                  max_attempts=max_attempts,
                                  task_timeout=task_timeout)
            pool.run(list(range(len(specs))), on_result=on_result)
            report = pool.telemetry.report(
                kind="parallel",
                config={"sweep": {"models": models, "markets": markets,
                                  "n_runs": n_runs,
                                  "base_seed": base_seed},
                        "workers": pool.telemetry.workers,
                        "tasks": [[s.model, s.market, s.run_index]
                                  for s in specs]})
            telemetry = report.to_dict()
            if store is not None:
                store.record_report(report)
        else:
            n_workers = 1
            for task in range(len(specs)):
                on_result(task, run_spec(task))

    results: Dict[Tuple[str, str], ExperimentResult] = {}
    for model, market in cells:
        ordered = [rows[(model, market)][index]
                   for index in range(n_runs)]
        results[(model, market)] = ExperimentResult(
            name=f"{model}@{market}",
            runs=[dict(row["metrics"]) for row in ordered],
            train_seconds=[float(row["train_seconds"])
                           for row in ordered],
            test_seconds=[float(row["test_seconds"]) for row in ordered])
    return SweepResult(results=results, workers=n_workers,
                       wall_seconds=time.perf_counter() - started,
                       telemetry=telemetry, executed=len(specs),
                       restored=restored)
