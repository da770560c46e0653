"""Model registry: discover, verify, reconstruct, and cache checkpoints.

A :class:`ModelRegistry` owns one directory of ``repro.ckpt`` archives —
typically the ``--checkpoint-dir`` a training run wrote — and turns them
into servable models:

- :meth:`discover` lists the available *versions* (archive stems, e.g.
  ``best`` or ``ckpt-e0007-b000000``) without loading anything;
- :meth:`describe` verifies an archive's SHA-256 checksum and returns its
  metadata (still without building a model);
- :meth:`load` reconstructs the model through the unified ``state_dict``
  API — architecture hyperparameters are *inferred from parameter shapes*
  (layer count, filter width, temporal kernel), the relation strategy
  comes from the checkpoint's registered model name via
  :data:`repro.core.model.RTGCN_VARIANTS`, and the market dataset is
  regenerated deterministically from the recorded market/seed;
- loaded models are cached under an LRU policy with an optional byte
  budget (:meth:`warm` pre-faults versions, :meth:`evict` drops them).

Everything is thread-safe: the front-end's executor threads (``models``,
``ingest``, hot-swap checks) resolve versions and fault in models
concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from ..ckpt.checkpoint import (CheckpointError, TrainingCheckpoint,
                               load as load_archive, verify_archive)
from ..ckpt.manager import _CKPT_PATTERN
from ..core.model import RTGCN, RTGCN_VARIANTS
from ..data import StockDataset, load_market
from ..nn.module import Module


class RegistryError(RuntimeError):
    """A model could not be resolved, verified, or reconstructed.

    The message always says which archive/version is at fault and what
    the operator can do about it (retrain, pass ``--model``/``--market``
    overrides, or pick another version).
    """


@dataclass
class ServableModel:
    """One loaded checkpoint, ready for forward-only inference."""

    version: str
    path: Path
    model: Module
    dataset: StockDataset
    model_name: str                      # registry name, e.g. "RT-GCN (T)"
    strategy: str
    graph_mode: str
    config: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Resident parameter bytes (the LRU budget currency)."""
        return sum(p.data.nbytes for p in self.model.parameters())

    @property
    def window(self) -> int:
        return int(self.config.get("window", 15))

    @property
    def num_features(self) -> int:
        return int(self.config.get("num_features", 4))


def infer_rtgcn_architecture(model_state: Dict[str, np.ndarray]
                             ) -> Dict[str, Any]:
    """Recover RTGCN constructor arguments from parameter shapes.

    ``TrainConfig`` does not record architecture knobs like
    ``relational_filters``, so reconstruction reads them off the weights:
    the scorer input width is the filter count, the first temporal
    filter's last axis is the kernel size, and the layer index space
    gives the depth.  Works for any checkpoint produced by the unified
    ``state_dict()`` contract.
    """
    layers = set()
    for key in model_state:
        if key.startswith("layer") and "." in key:
            layers.add(int(key.split(".", 1)[0][len("layer"):]))
    if not layers or "scorer.weight" not in model_state:
        raise RegistryError(
            "state dict does not look like an RTGCN (no layerN.*/scorer "
            "entries); only RT-GCN checkpoints are servable today")
    num_layers = max(layers) + 1
    use_relational = any(k.startswith("layer0.relational.")
                         for k in model_state)
    use_temporal = any(k.startswith("layer0.temporal.")
                       for k in model_state)
    arch: Dict[str, Any] = {
        "num_layers": num_layers,
        "use_relational": use_relational,
        "use_temporal": use_temporal,
        "relational_filters": int(model_state["scorer.weight"].shape[1]),
    }
    if use_relational:
        arch["num_features"] = int(
            model_state["layer0.relational.conv.weight"].shape[1])
    if use_temporal:
        conv1 = model_state["layer0.temporal.block.conv1.weight_v"]
        arch["temporal_kernel"] = int(conv1.shape[-1])
        if not use_relational:
            arch["num_features"] = int(conv1.shape[1])
    return arch


def resolve_strategy(checkpoint: TrainingCheckpoint,
                     model_name: Optional[str] = None) -> "tuple[str, str]":
    """``(model_name, strategy)`` for a checkpointed RTGCN.

    Preference order: explicit ``model_name`` argument, then the
    ``metadata["model"]`` the CLI stamps at save time — both resolved
    through :data:`repro.core.model.RTGCN_VARIANTS`, the table the
    baseline registry builds its RT-GCN specs from.
    A checkpoint with no strategy parameters is unambiguously ``uniform``;
    otherwise an unnamed checkpoint is an error (weight- and
    time-strategy parameters are shape-identical, guessing could serve
    wrong scores).
    """
    strategies = RTGCN_VARIANTS
    name = model_name or checkpoint.metadata.get("model")
    if name is not None:
        if name not in strategies:
            raise RegistryError(
                f"model {name!r} is not a servable RT-GCN variant; "
                f"servable: {sorted(strategies)}")
        return name, strategies[name]
    has_strategy_params = any(".strategy." in key
                              for key in checkpoint.model_state)
    if not has_strategy_params:
        uniform = [n for n, s in strategies.items() if s == "uniform"]
        return uniform[0], "uniform"
    raise RegistryError(
        "checkpoint does not record which RT-GCN variant it is (weight- "
        "and time-strategy parameters have identical shapes); pass the "
        "model name explicitly (CLI: --model) or re-save the checkpoint "
        "with `repro.cli train --checkpoint`, which stamps it")


def build_servable(path: Union[str, Path], version: str,
                   model_name: Optional[str] = None,
                   market: Optional[str] = None,
                   dataset: Optional[StockDataset] = None,
                   seed: Optional[int] = None) -> ServableModel:
    """Reconstruct one checkpoint archive into a :class:`ServableModel`."""
    path = Path(path)
    try:
        checkpoint = load_archive(path)
    except CheckpointError as exc:
        raise RegistryError(f"version {version!r} is unusable: {exc}") \
            from exc
    config = dict(checkpoint.config)
    name, strategy = resolve_strategy(checkpoint, model_name)
    market = market or checkpoint.metadata.get("market")
    if dataset is None:
        if market is None:
            raise RegistryError(
                f"checkpoint {path} does not record its market and no "
                "override was given; pass market= (CLI: --market) so the "
                "relation graph can be rebuilt")
        dataset = load_market(
            market, seed=int(seed if seed is not None
                             else config.get("seed", 0)))
    arch = infer_rtgcn_architecture(checkpoint.model_state)
    num_features = arch.pop("num_features",
                            int(config.get("num_features", 4)))
    config.setdefault("num_features", num_features)
    graph_mode = str(config.get("graph_mode", "auto"))
    model = RTGCN(dataset.relations, num_features=num_features,
                  strategy=strategy,
                  rng=np.random.default_rng(int(config.get("seed", 0))),
                  **arch)
    try:
        model.load_state_dict(checkpoint.model_state)
    except (KeyError, ValueError) as exc:
        raise RegistryError(
            f"version {version!r} does not fit the reconstructed "
            f"architecture ({exc}); the archive may have been produced "
            "by an incompatible build") from exc
    model.eval()
    meta = {"model_class": checkpoint.model_class,
            "format_version": checkpoint.format_version,
            "cursor": dict(checkpoint.cursor),
            "user": dict(checkpoint.metadata)}
    return ServableModel(version=version, path=path, model=model,
                         dataset=dataset, model_name=name,
                         strategy=strategy, graph_mode=graph_mode,
                         config=config, meta=meta)


class ModelRegistry:
    """Versioned load/warm/evict over one directory of ``.npz`` archives.

    Parameters
    ----------
    directory:
        Where the archives live (a training ``--checkpoint-dir`` or any
        folder of ``repro.ckpt`` files).
    memory_budget_bytes:
        Optional cap on resident parameter bytes; loading past it evicts
        least-recently-used versions (the newest load is always kept,
        even alone over budget).
    model, market, seed:
        Defaults for archives whose metadata does not record the model
        name / market (e.g. mid-training checkpoints written by
        ``CheckpointCallback``).
    """

    def __init__(self, directory: Union[str, Path],
                 memory_budget_bytes: Optional[int] = None,
                 model: Optional[str] = None,
                 market: Optional[str] = None,
                 seed: Optional[int] = None):
        self.directory = Path(directory)
        self.memory_budget_bytes = memory_budget_bytes
        self.default_model = model
        self.default_market = market
        self.default_seed = seed
        self._lock = threading.RLock()
        self._loaded: "OrderedDict[str, ServableModel]" = OrderedDict()
        self._datasets: Dict[Any, StockDataset] = {}
        self.loads = 0
        self.hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def discover(self) -> List[str]:
        """Sorted version names (archive stems) present on disk."""
        if not self.directory.exists():
            return []
        return sorted(p.stem for p in self.directory.glob("*.npz")
                      if not p.name.startswith("."))

    def path_of(self, version: str) -> Path:
        path = self.directory / f"{version}.npz"
        if not path.exists():
            available = self.discover()
            raise RegistryError(
                f"version {version!r} not found in {self.directory}; "
                f"available: {available or '(none)'}")
        return path

    def default_version(self) -> str:
        """``best`` when present, else the newest periodic checkpoint.

        Periodic checkpoints order by their ``(epoch, batch)`` encoding;
        anything else falls back to lexicographically-last, which is
        stable for timestamped exports.
        """
        versions = self.discover()
        if not versions:
            raise RegistryError(
                f"no model archives (*.npz) in {self.directory}; train "
                "with --checkpoint/--checkpoint-dir first")
        if "best" in versions:
            return "best"
        periodic = [v for v in versions
                    if _CKPT_PATTERN.match(f"{v}.npz")]
        if periodic:
            return max(periodic, key=lambda v: tuple(
                int(g) for g in _CKPT_PATTERN.match(f"{v}.npz").groups()))
        return versions[-1]

    def fingerprint(self, version: Optional[str] = None
                    ) -> Optional["tuple[str, int, int]"]:
        """``(version, mtime_ns, size)`` of a version's archive, or None.

        The cheap change-detection key the cluster's hot-swap watcher
        polls: a checkpoint promotion rewrites the archive, so either the
        mtime or the size moves.  ``version=None`` fingerprints whatever
        :meth:`default_version` currently resolves to (so a *newly
        appearing* ``best`` is also a change).  Returns ``None`` when the
        directory holds no archives yet — the watcher just keeps polling.
        """
        try:
            if version is None:
                version = self.default_version()
            stat = self.path_of(version).stat()
        except (RegistryError, OSError):
            return None
        return (version, stat.st_mtime_ns, stat.st_size)

    def describe(self, version: str) -> Dict[str, Any]:
        """Checksum-verified metadata of one archive (no model build)."""
        path = self.path_of(version)
        try:
            meta = verify_archive(path)
        except CheckpointError as exc:
            raise RegistryError(f"version {version!r} failed "
                                f"verification: {exc}") from exc
        meta["version"] = version
        meta["bytes"] = path.stat().st_size
        return meta

    # ------------------------------------------------------------------
    # load / warm / evict
    # ------------------------------------------------------------------
    def load(self, version: Optional[str] = None) -> ServableModel:
        """The servable model for ``version`` (default: best/newest).

        Cache hit refreshes LRU order; a miss verifies + reconstructs the
        archive and may evict older versions past the byte budget.
        """
        with self._lock:
            if version is None:
                version = self.default_version()
            if version in self._loaded:
                self._loaded.move_to_end(version)
                self.hits += 1
                return self._loaded[version]
            path = self.path_of(version)
            servable = build_servable(
                path, version, model_name=self.default_model,
                market=self.default_market, dataset=None,
                seed=self.default_seed)
            # Share one dataset object across versions of the same market
            # (they are deterministic in (market, seed), and the relation
            # graph is the expensive part).
            ds_key = (servable.dataset.market,
                      int(servable.config.get("seed", 0)))
            if ds_key in self._datasets:
                servable.dataset = self._datasets[ds_key]
            else:
                self._datasets[ds_key] = servable.dataset
            self._loaded[version] = servable
            self.loads += 1
            self._enforce_budget(keep=version)
            return servable

    def evict(self, version: Optional[str] = None) -> bool:
        """Drop one loaded version (default: least recently used)."""
        with self._lock:
            if not self._loaded:
                return False
            if version is None:
                self._loaded.popitem(last=False)
            elif version in self._loaded:
                del self._loaded[version]
            else:
                return False
            self.evictions += 1
            return True

    def _enforce_budget(self, keep: str) -> None:
        if self.memory_budget_bytes is None:
            return
        while (len(self._loaded) > 1
               and sum(s.nbytes for s in self._loaded.values())
               > self.memory_budget_bytes):
            oldest = next(iter(self._loaded))
            if oldest == keep:
                break
            del self._loaded[oldest]
            self.evictions += 1

    # ------------------------------------------------------------------
    def loaded_versions(self) -> List[str]:
        with self._lock:
            return list(self._loaded)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self.directory),
                "available": self.discover(),
                "loaded": list(self._loaded),
                "resident_bytes": sum(s.nbytes
                                      for s in self._loaded.values()),
                "memory_budget_bytes": self.memory_budget_bytes,
                "loads": self.loads,
                "hits": self.hits,
                "evictions": self.evictions,
            }
