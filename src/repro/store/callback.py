"""Write-through training telemetry: the :class:`StoreCallback`.

Rides the PR-1 :class:`~repro.core.callbacks.TrainerCallback` event API
(duck-typed, like :class:`repro.obs.TelemetryCallback`, so
:mod:`repro.store` stays importable without :mod:`repro.core`): the run
row is opened on the first epoch event and every epoch's mean loss is
streamed into the ``epochs`` table as it completes — which is what makes
N forked workers hammering one WAL database the store's stress test, and
what lets ``repro.cli db query`` watch a fit converge while it is still
running.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .db import ExperimentStore, as_store


def fallback_fingerprint(experiment: str,
                         config: Optional[Dict[str, Any]] = None,
                         seed: Optional[int] = None) -> str:
    """A stable digest for runs outside the multi-run protocol.

    One-off ``Trainer.fit`` invocations (``repro.cli train --store``)
    have no protocol fingerprint; this derives one from the experiment
    name, config, and seed so the natural key still dedups re-runs of
    the same setup.
    """
    blob = json.dumps({"experiment": experiment, "config": config,
                       "seed": seed}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class StoreCallback:
    """Streams a fit's per-epoch losses into an :class:`ExperimentStore`.

    Parameters
    ----------
    store:
        The store (or its database path).
    experiment:
        Run name, e.g. ``"RT-GCN (T)@nasdaq-mini"``.
    fingerprint:
        Natural-key digest; derived via :func:`fallback_fingerprint`
        when omitted.
    run_index / seed / kind / config:
        Stamped onto the run row.
    """

    def __init__(self, store: Union[ExperimentStore, str, Path],
                 experiment: str, *,
                 fingerprint: Optional[str] = None, run_index: int = 0,
                 seed: Optional[int] = None, kind: str = "train",
                 config: Optional[Dict[str, Any]] = None):
        self.store = as_store(store)
        self.experiment = experiment
        self.config = config
        self.fingerprint = (fingerprint if fingerprint is not None
                            else fallback_fingerprint(experiment, config,
                                                      seed))
        self.run_index = int(run_index)
        self.seed = seed
        self.kind = kind
        #: the ``runs`` row id, set on the first epoch event
        self.run_id: Optional[int] = None

    # ------------------------------------------------------------------
    def _ensure_run(self, trainer) -> int:
        if self.run_id is None:
            config = self.config
            if config is None and trainer is not None:
                from dataclasses import asdict
                config = asdict(trainer.config)
            self.run_id = self.store.start_run(
                self.experiment, self.fingerprint, self.run_index,
                seed=self.seed, kind=self.kind, config=config)
        return self.run_id

    # ------------------------------------------------------------------
    # TrainerCallback protocol
    # ------------------------------------------------------------------
    def on_epoch_start(self, trainer, epoch: int) -> None:
        self._ensure_run(trainer)

    def on_batch_end(self, trainer, epoch: int, day: int,
                     loss: float) -> None:
        """No-op; per-batch rows would swamp the database."""

    def on_epoch_end(self, trainer, epoch: int, mean_loss: float) -> None:
        self.store.record_epoch(self._ensure_run(trainer), epoch,
                                float(mean_loss))

    def on_fit_end(self, trainer, losses) -> None:
        """Nothing to finalize: epochs are already durable, and result
        metrics arrive later via ``record_run`` under the same key."""

    # ------------------------------------------------------------------
    def record_checkpoint(self, path, *, epoch: Optional[int] = None,
                          batch_index: Optional[int] = None,
                          size_bytes: Optional[int] = None,
                          write_seconds: Optional[float] = None,
                          is_best: bool = False) -> int:
        """Land one checkpoint write under this run — the signature
        :class:`repro.ckpt.CheckpointCallback` expects of a
        ``recorder``."""
        return self.store.record_checkpoint(
            path, run_id=self._ensure_run(None), epoch=epoch,
            batch_index=batch_index, size_bytes=size_bytes,
            write_seconds=write_seconds, is_best=is_best)

    # ------------------------------------------------------------------
    def finalize(self, metrics: Dict[str, float],
                 train_seconds: Optional[float] = None,
                 test_seconds: Optional[float] = None) -> int:
        """Attach result metrics to the streamed run (same natural key,
        so the UPSERT keeps the row id and its epoch rows)."""
        return self.store.record_run(
            self.experiment, self.fingerprint, self.run_index, metrics,
            seed=self.seed, train_seconds=train_seconds,
            test_seconds=test_seconds, kind=self.kind, config=self.config)
