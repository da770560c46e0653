"""Multi-run experiment protocol (§V-B-4 and §V-C-1).

"To eliminate the randomness and have a statistically significant result,
we run all models fifteen times and average the performance."  This module
provides exactly that loop: a *model factory* is invoked once per run with
a fresh seeded generator, trained through the shared
:class:`~repro.core.trainer.Trainer`, scored with the ranking metrics, and
the per-run metric dicts are aggregated and compared with the Wilcoxon
machinery.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.trainer import TrainConfig, Trainer, TrainResult
from ..data import StockDataset
from ..nn.module import Module
from ..nn.random import fork_rng
from ..stats import (RunSummary, WilcoxonResult, one_sample_wilcoxon,
                     paired_wilcoxon, summarize_runs)
from .metrics import ranking_metrics

ModelFactory = Callable[[np.random.Generator], Module]

def _experiment_fingerprint(config: Optional[TrainConfig], n_runs: int,
                            base_seed: int) -> str:
    """Stable digest of everything that shapes the per-run results."""
    payload = {"config": asdict(config) if config is not None else None,
               "n_runs": n_runs, "base_seed": base_seed}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _stored_rows(store, fingerprint: str, name: str, n_runs: int
                 ) -> Dict[int, Dict[str, object]]:
    """Completed runs the store holds for one protocol, as loop rows.

    Seeds depend only on the run index, so a restored row is exactly
    the run a fresh execution would produce; rows outside ``n_runs``
    are ignored.
    """
    def seconds(value: Optional[float]) -> float:
        return float("nan") if value is None else value

    return {index: {"metrics": dict(run.metrics),
                    "train_seconds": seconds(run.train_seconds),
                    "test_seconds": seconds(run.test_seconds)}
            for index, run in store.completed_runs(fingerprint,
                                                   name).items()
            if 0 <= index < n_runs}


def _epoch_losses(result: object) -> Optional[List[float]]:
    """Per-epoch losses from a TrainResult or PredictorResult, if any."""
    losses = getattr(result, "epoch_losses", None)
    if losses is None:
        losses = getattr(result, "extras", {}).get("epoch_losses")
    return [float(x) for x in losses] if losses is not None else None


@dataclass
class ExperimentResult:
    """All runs of one model on one dataset."""

    name: str
    runs: List[Dict[str, float]]
    train_seconds: List[float]
    test_seconds: List[float]
    #: last run's raw result (TrainResult or PredictorResult — both expose
    #: ``predictions``, ``actuals`` and ``test_days``)
    last_result: Optional[object] = field(default=None, repr=False)
    #: schema-v1 executor report (``RunReport.to_dict()``) when the runs
    #: were fanned out with ``workers > 1``; ``None`` for serial runs
    telemetry: Optional[Dict[str, object]] = field(default=None, repr=False)

    def summary(self) -> Dict[str, RunSummary]:
        return summarize_runs(self.runs)

    def metric_values(self, metric: str) -> List[float]:
        return [run[metric] for run in self.runs]

    def mean(self, metric: str) -> float:
        return float(np.mean(self.metric_values(metric)))


def _run_protocol_loop(name: str, n_runs: int, base_seed: int,
                       one_run: Callable[[int], "tuple"],
                       fingerprint: str, config: TrainConfig,
                       workers: int = 1, store: Optional[object] = None,
                       dedup: bool = True) -> ExperimentResult:
    """Shared 15-run loop with optional run-level resume and fan-out.

    ``one_run(seed)`` executes a single seeded run and returns
    ``(metrics, result)``.

    With ``workers > 1`` the missing runs are fanned out across forked
    worker processes (:class:`repro.parallel.ExperimentPool`).  Every
    run is seeded exactly as in the serial loop and nothing in a run
    reads cross-run state, so the aggregated metrics are bitwise-equal
    to serial execution; crashed workers are respawned with their run
    retried (see docs/parallelism.md).

    ``store`` (an :class:`~repro.store.ExperimentStore` or its path) is
    the run ledger: every completed run is recorded there as it
    arrives, and with ``dedup=True`` runs already stored under this
    protocol's fingerprint are restored instead of executed.  Seeds
    depend only on the run index, so an experiment resumed after a crash
    aggregates exactly like an uninterrupted one (see
    docs/experiment-store.md).
    """
    if store is not None:
        from ..store.db import as_store
        store = as_store(store)
    rows: Dict[int, Dict[str, object]] = {}
    if store is not None and dedup:
        rows = _stored_rows(store, fingerprint, name, n_runs)
    config_dict = asdict(config)

    def persist(run_index: int, metrics: Dict[str, float],
                train_s: float, test_s: float,
                epoch_losses: Optional[List[float]] = None) -> None:
        if store is not None:
            store.record_run(
                name, fingerprint, run_index, dict(metrics),
                seed=base_seed * 1000 + run_index,
                train_seconds=float(train_s), test_seconds=float(test_s),
                epoch_losses=epoch_losses, config=config_dict,
                n_runs=n_runs, base_seed=base_seed)

    todo = [index for index in range(n_runs) if index not in rows]
    last = None
    pool = None
    if workers > 1 and len(todo) > 1:
        from ..parallel import ExperimentPool, fork_available
        if not fork_available():
            warnings.warn(
                "repro.parallel needs the 'fork' start method, which "
                "this platform lacks; running the experiment serially",
                RuntimeWarning, stacklevel=3)
        else:
            keep_index = max(todo)

            def run_task(run_index: int):
                seed = base_seed * 1000 + run_index
                metrics, result = one_run(seed)
                # Ship the full result only for the final run (it backs
                # ExperimentResult.last_result); metrics, timings, and
                # epoch losses are all the aggregate/store need from the
                # rest.
                return (metrics, float(result.train_seconds),
                        float(result.test_seconds),
                        _epoch_losses(result),
                        result if run_index == keep_index else None)

            def on_result(run_index: int, payload) -> None:
                metrics, train_s, test_s, losses, _ = payload
                persist(run_index, metrics, train_s, test_s, losses)

            pool = ExperimentPool(min(workers, len(todo)), run_task)
            outcome = pool.run(todo, on_result=on_result)
            for run_index, payload in outcome.items():
                metrics, train_s, test_s, _, result = payload
                rows[run_index] = {"metrics": metrics,
                                   "train_seconds": train_s,
                                   "test_seconds": test_s}
                if result is not None:
                    last = result
            todo = []
    for run_index in todo:
        seed = base_seed * 1000 + run_index
        metrics, result = one_run(seed)
        rows[run_index] = {"metrics": metrics,
                           "train_seconds": result.train_seconds,
                           "test_seconds": result.test_seconds}
        last = result
        persist(run_index, metrics, result.train_seconds,
                result.test_seconds, _epoch_losses(result))
    telemetry = None
    if pool is not None:
        report = pool.telemetry.report(
            kind="parallel",
            config={"experiment": name, "n_runs": n_runs,
                    "base_seed": base_seed,
                    "workers": pool.telemetry.workers})
        telemetry = report.to_dict()
        if store is not None:
            store.record_report(report)
    ordered = [rows[index] for index in range(n_runs)]
    return ExperimentResult(
        name=name,
        runs=[dict(row["metrics"]) for row in ordered],
        train_seconds=[float(row["train_seconds"]) for row in ordered],
        test_seconds=[float(row["test_seconds"]) for row in ordered],
        last_result=last, telemetry=telemetry)


def run_experiment(name: str, factory: ModelFactory, dataset: StockDataset,
                   config: Optional[TrainConfig] = None, n_runs: int = 15,
                   base_seed: int = 0,
                   top_ns: Sequence[int] = (1, 5, 10),
                   workers: int = 1,
                   store: Optional[object] = None, dedup: bool = True
                   ) -> ExperimentResult:
    """Train/evaluate a model ``n_runs`` times with independent seeds.

    ``workers > 1`` fans the runs out across forked worker processes;
    every run keeps its serial seeding, so the aggregated metrics are
    bitwise-identical to ``workers=1`` (dense and sparse graph modes
    alike).  The executor's schema-v1 :class:`~repro.obs.RunReport` is
    returned as ``ExperimentResult.telemetry``.

    ``store`` records every run in the experiment database
    (docs/experiment-store.md): per-epoch losses stream write-through
    from ``Trainer.fit``, run metrics and the executor report land on
    completion, and with ``dedup=True`` a re-invocation — e.g. after a
    crash — restores already-stored runs (by config fingerprint) and
    executes only the missing ones (``last_result`` is ``None`` when
    every run was restored).
    """
    cfg = config if config is not None else TrainConfig()
    fingerprint = _experiment_fingerprint(cfg, n_runs, base_seed)

    def one_run(seed: int):
        model = factory(fork_rng(seed))
        run_cfg = replace(cfg, seed=seed)
        callbacks = []
        if store is not None:
            from ..store import StoreCallback
            callbacks.append(StoreCallback(
                store, name, fingerprint=fingerprint,
                run_index=seed - base_seed * 1000, seed=seed,
                kind="experiment", config=asdict(run_cfg)))
        result = Trainer(model, dataset, run_cfg).run(callbacks=callbacks)
        metrics = ranking_metrics(result.predictions, result.actuals,
                                  top_ns=top_ns)
        return metrics, result

    return _run_protocol_loop(name, n_runs, base_seed, one_run,
                              fingerprint, cfg, workers=workers,
                              store=store, dedup=dedup)


def run_named_experiment(name: str, dataset: StockDataset,
                         config: Optional[TrainConfig] = None,
                         n_runs: int = 15, base_seed: int = 0,
                         top_ns: Sequence[int] = (1, 5, 10),
                         workers: int = 1,
                         store: Optional[object] = None,
                         dedup: bool = True) -> ExperimentResult:
    """Run a registry model (Table IV name) for ``n_runs`` seeded repeats.

    Classification models (``can_rank=False``) report ``MRR = NaN``,
    rendering as '-' in the printed tables, exactly like the paper.
    ``workers`` fans the runs out across processes, and ``store``/
    ``dedup`` record into (and resume from) the experiment database, as
    in :func:`run_experiment`.
    """
    from ..baselines.registry import get_spec, make_predictor

    spec = get_spec(name)
    cfg = spec.adapt_config(config if config is not None else TrainConfig())

    def one_run(seed: int):
        predictor = make_predictor(name, dataset, seed=seed)
        run_cfg = replace(cfg, seed=seed)
        result = predictor.fit_predict(dataset, run_cfg)
        metrics = ranking_metrics(result.predictions, result.actuals,
                                  top_ns=top_ns)
        if not spec.can_rank:
            metrics["MRR"] = float("nan")
        return metrics, result

    return _run_protocol_loop(
        name, n_runs, base_seed, one_run,
        _experiment_fingerprint(cfg, n_runs, base_seed), cfg,
        workers=workers, store=store, dedup=dedup)


def compare_paired(ours: ExperimentResult, baseline: ExperimentResult,
                   metric: str) -> WilcoxonResult:
    """Table IV significance: paired Wilcoxon of per-run metric values."""
    return paired_wilcoxon(ours.metric_values(metric),
                           baseline.metric_values(metric),
                           alternative="greater")


def compare_to_published(ours: ExperimentResult, metric: str,
                         published_value: float) -> WilcoxonResult:
    """Table V significance: one-sample Wilcoxon vs a published number."""
    return one_sample_wilcoxon(ours.metric_values(metric), published_value,
                               alternative="greater")


def strongest_baseline(results: Dict[str, ExperimentResult],
                       metric: str) -> str:
    """Name of the baseline with the best mean on ``metric``."""
    if not results:
        raise ValueError("no baseline results supplied")
    return max(results, key=lambda name: results[name].mean(metric))
