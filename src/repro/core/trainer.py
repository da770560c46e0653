"""Shared training harness for ranking/regression stock models.

Implements the paper's protocol (§V-B-4): Adam with lr = 0.001, the
combined loss of Eq. (9) with λ = 0.01, full-universe batches (one training
sample = one trading day's graph), and grid-searchable window size ``T`` and
balancing parameter α.  The same harness trains RT-GCN and every
gradient-based baseline, which is what makes the Figure 5 speed comparison
apples-to-apples.

The fit loop is fault-tolerant: its entire mutable state (epoch/batch
cursor, shuffle order, RNG streams, early-stopping bests) lives in one
:class:`_FitState` record, so :meth:`Trainer.state_dict` can capture a
:class:`~repro.ckpt.TrainingCheckpoint` at any batch boundary and
:meth:`Trainer.fit` with ``resume_from=`` continues a killed run
bitwise-identically to the uninterrupted one (see docs/checkpointing.md).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..data import StockDataset
from ..nn.graph import set_graph_mode
from ..nn.module import Module
from ..nn.random import get_rng
from ..obs.tracer import trace
from ..optim import Adam, clip_grad_norm_
from ..tensor import (Tensor, arena, default_dtype, dtype_policy,
                      fused_kernels, no_grad, retain_heap)
from ..tensor.dtype import policy_names
from .callbacks import CallbackList, TrainerCallback
from .losses import combined_loss

#: TrainConfig fields allowed to differ between a checkpoint and the
#: resuming trainer (anything else changes the training trajectory and
#: would silently break bitwise resume).
_RESUME_EXEMPT_FIELDS = ("epochs",)


class NonFiniteLossError(RuntimeError):
    """Raised when a batch loss goes NaN/Inf and the policy is ``raise``
    (or recovery is exhausted under ``rollback``)."""


@dataclass
class TrainConfig:
    """Hyperparameters of a training run (defaults follow §V-B-4)."""

    window: int = 15               # T, grid {5, 10, 15, 20} in Fig. 7
    num_features: int = 4          # Table VIII feature combination
    alpha: float = 0.1             # loss balance, grid {0.01, 0.1, 0.2}
    # λ of Eq. (9).  The paper reports λ = 0.01 with sum-form losses; our
    # losses are means (per stock / per pair), so the equivalent decay is
    # smaller by roughly the universe size — 0.01 would dwarf the ~1e-4
    # scale of the MSE term and shrink every weight to zero.
    weight_decay: float = 1e-6
    learning_rate: float = 1e-3
    epochs: int = 10
    grad_clip: float = 5.0
    shuffle: bool = True
    seed: int = 0
    # Graph propagation backend: "auto" respects each module's own setting
    # (density-based dispatch by default); "dense"/"sparse" force the
    # backend on every graph module of the model (see docs/performance.md).
    graph_mode: str = "auto"
    max_train_days: Optional[int] = None   # subsample for quick experiments
    # Early stopping: when patience is set, the last `validation_days` of
    # the training period are held out, the validation loss is evaluated
    # after every epoch, and training stops after `patience` epochs without
    # improvement (the best parameters are restored).
    early_stopping_patience: Optional[int] = None
    validation_days: int = 20
    # What to do when a batch loss is NaN/Inf: "raise" aborts with
    # NonFiniteLossError, "ignore" keeps the old propagate-silently
    # behavior, "rollback" restores the last good checkpoint (requires a
    # CheckpointCallback), halves the learning rate, and retries — at
    # most `max_rollbacks` times before raising.
    nan_policy: str = "raise"
    max_rollbacks: int = 3
    # Numerics (see docs/performance.md): the dtype policy active for the
    # whole run ("float64", "float32", or "mixed" — fp32 storage with fp64
    # accumulation in reductions), whether the fused autograd kernels are
    # used (bitwise-equal to the composed ops under float64), and whether
    # backward temporaries are recycled through the buffer arena.
    dtype_policy: str = "float64"
    fused_kernels: bool = True
    buffer_arena: bool = False
    # Intra-run data parallelism (see docs/distributed.md): 0 disables
    # (plain serial loop), N >= 1 runs the repro.dist fit loop with N
    # worker processes (1 = inline, the serial numerical reference;
    # negative = one per CPU).  `dist_days_per_step` is how many days of
    # the schedule one optimizer step consumes under that loop; it is
    # part of the numerics (it changes the effective batch size), so it
    # is a config knob and never derived from the worker count.
    dist_workers: int = 0
    dist_days_per_step: int = 4

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.num_features < 1:
            raise ValueError(f"num_features must be >= 1, got "
                             f"{self.num_features}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got "
                             f"{self.learning_rate}")
        # `train_days[-0:]` is the whole split, so 0 must not reach it.
        if self.max_train_days is not None and self.max_train_days < 1:
            raise ValueError(f"max_train_days must be None or >= 1, got "
                             f"{self.max_train_days}")
        if self.dtype_policy not in policy_names():
            raise ValueError(f"dtype_policy must be one of "
                             f"{', '.join(map(repr, policy_names()))}, got "
                             f"{self.dtype_policy!r}")
        if self.nan_policy not in ("raise", "ignore", "rollback"):
            raise ValueError(f"nan_policy must be 'raise', 'ignore' or "
                             f"'rollback', got {self.nan_policy!r}")
        if self.graph_mode not in ("auto", "dense", "sparse"):
            raise ValueError(f"graph_mode must be 'auto', 'dense' or "
                             f"'sparse', got {self.graph_mode!r}")
        if self.dist_days_per_step < 1:
            raise ValueError(f"dist_days_per_step must be >= 1, got "
                             f"{self.dist_days_per_step}")
        # A negative clip norm flips every gradient (gradient ascent).
        for name in ("grad_clip", "weight_decay", "alpha"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)}")
        if self.early_stopping_patience is not None and \
                self.early_stopping_patience < 1:
            raise ValueError(f"early_stopping_patience must be None or "
                             f">= 1, got {self.early_stopping_patience}")
        if self.validation_days < 1:
            raise ValueError(f"validation_days must be >= 1, got "
                             f"{self.validation_days}")
        if self.max_rollbacks < 0:
            raise ValueError(f"max_rollbacks must be >= 0, got "
                             f"{self.max_rollbacks}")


@dataclass
class TrainResult:
    """Everything an experiment needs from one trained model."""

    epoch_losses: List[float]
    train_seconds: float
    test_seconds: float
    test_days: List[int]
    predictions: np.ndarray        # (num_test_days, num_stocks) scores
    actuals: np.ndarray            # (num_test_days, num_stocks) true returns
    extras: dict = field(default_factory=dict)


@dataclass
class _FitState:
    """The fit loop's complete mutable state (what a checkpoint captures).

    ``epoch`` is the epoch currently in progress; ``day_order`` is that
    epoch's shuffled schedule (``None`` between epochs) and
    ``batch_index`` counts its already-applied batches, so a checkpoint
    taken mid-epoch resumes at exactly the next day of the same order.
    """

    rng: np.random.Generator
    epoch: int = 0
    batch_index: int = 0
    day_order: Optional[List[int]] = None
    epoch_loss: float = 0.0
    losses: List[float] = field(default_factory=list)
    best_val: float = float("inf")
    best_state: Optional[Dict[str, np.ndarray]] = None
    bad_epochs: int = 0


class Trainer:
    """Trains a scoring model ``X (T,N,D) → scores (N,)`` on a dataset."""

    def __init__(self, model: Module, dataset: StockDataset,
                 config: Optional[TrainConfig] = None,
                 loss_fn: Optional[Callable] = None,
                 train_days: Optional[Sequence[int]] = None):
        """``loss_fn(scores, labels, parameters)`` may replace Eq. (9);
        the default is the paper's combined loss.  ``train_days`` overrides
        the dataset's chronological training split (used by grid search to
        hold out a validation tail)."""
        self.model = model
        self.dataset = dataset
        self.config = config if config is not None else TrainConfig()
        if self.config.graph_mode != "auto":
            # Force the configured backend onto every graph module; "auto"
            # leaves the model's own (density-dispatched) modes untouched.
            set_graph_mode(model, self.config.graph_mode)
        # Cast the model to the policy's storage dtype up front (also
        # validates the policy name).  Adam state is allocated lazily with
        # ``zeros_like(param.data)``, so it follows automatically.
        with dtype_policy(self.config.dtype_policy):
            model.astype(default_dtype())
        self.loss_fn = loss_fn
        self.train_days_override = (list(train_days)
                                    if train_days is not None else None)
        self.optimizer = Adam(model.parameters(),
                              lr=self.config.learning_rate)
        self._fit_state: Optional[_FitState] = None
        # Live repro.dist ShardExecutor while a distributed fit is in
        # flight (fault-injection hooks and tests reach workers through
        # it); None otherwise.
        self.dist_executor = None

    # ------------------------------------------------------------------
    # day bookkeeping
    # ------------------------------------------------------------------
    def _training_days(self) -> Tuple[List[int], List[int]]:
        """``(train_days, validation_days)`` after every config filter."""
        cfg = self.config
        if self.train_days_override is not None:
            train_days = list(self.train_days_override)
        else:
            split_days, _ = self.dataset.split(cfg.window)
            train_days = list(split_days)
        if cfg.max_train_days is not None:
            train_days = train_days[-cfg.max_train_days:]
        validation_days: List[int] = []
        if cfg.early_stopping_patience is not None:
            if cfg.validation_days >= len(train_days):
                raise ValueError(f"validation_days={cfg.validation_days} "
                                 f"exhausts the {len(train_days)}-day "
                                 "training period")
            validation_days = train_days[-cfg.validation_days:]
            train_days = train_days[:-cfg.validation_days]
        return train_days, validation_days

    # ------------------------------------------------------------------
    # checkpoint state (the uniform state-dict contract)
    # ------------------------------------------------------------------
    def _named_rngs(self) -> List[Tuple[str, np.random.Generator]]:
        """Distinct RNGs owned by the model's modules, by dotted name.

        Dropout layers draw from their construction-time generator during
        training; restoring these streams is what keeps a resumed run's
        masks identical to the uninterrupted run's.
        """
        seen: Dict[int, Tuple[str, np.random.Generator]] = {}
        for name, module in self.model.named_modules():
            gen = getattr(module, "_rng", None)
            if isinstance(gen, np.random.Generator) and id(gen) not in seen:
                seen[id(gen)] = (name or "<root>", gen)
        return list(seen.values())

    def state_dict(self) -> "Any":
        """A :class:`~repro.ckpt.TrainingCheckpoint` of the whole run.

        Captures model parameters, full optimizer state, every RNG stream
        (shuffle, library-global, per-module dropout), the epoch/batch
        cursor, early-stopping state, and the ``TrainConfig``.  Valid at
        any batch boundary; between fits it describes a run about to
        start (or just finished).
        """
        from ..ckpt.checkpoint import TrainingCheckpoint, rng_state

        state = self._fit_state
        if state is None:
            state = self._fit_state = _FitState(
                rng=np.random.default_rng(self.config.seed))
        rngs: Dict[str, Any] = {"shuffle": rng_state(state.rng),
                                "global": rng_state(get_rng())}
        for name, gen in self._named_rngs():
            rngs[f"module:{name}"] = rng_state(gen)
        return TrainingCheckpoint(
            model_state=self.model.state_dict(),
            optimizer_state=self.optimizer.state_dict(),
            rng=rngs,
            cursor={"epoch": state.epoch,
                    "batch_index": state.batch_index,
                    "day_order": state.day_order,
                    "epoch_loss": state.epoch_loss,
                    "losses": list(state.losses)},
            early_stopping={"best_val": state.best_val,
                            "bad_epochs": state.bad_epochs},
            best_model_state=state.best_state,
            config=asdict(self.config),
            model_class=type(self.model).__name__)

    def load_state_dict(self, checkpoint: "Any") -> None:
        """Restore a :class:`~repro.ckpt.TrainingCheckpoint` into this
        trainer: parameters, optimizer, RNG streams, and the fit cursor.

        The checkpoint's ``TrainConfig`` must match this trainer's on
        every field except ``epochs`` (extending a finished run is fine);
        a mismatch raises :class:`~repro.ckpt.CheckpointError` because it
        would silently change the training trajectory.
        """
        from ..ckpt.checkpoint import (CheckpointError, restore_rng)

        if checkpoint.format_version < 2:
            raise CheckpointError(
                "cannot resume from a format-v1 (parameters-only) "
                "checkpoint: it has no optimizer/RNG/cursor state; load "
                "it with repro.ckpt.load instead")
        if checkpoint.model_class and \
                checkpoint.model_class != type(self.model).__name__:
            raise CheckpointError(
                f"checkpoint holds a {checkpoint.model_class}, trainer "
                f"model is a {type(self.model).__name__}")
        if checkpoint.config:
            own = asdict(self.config)
            for key, value in checkpoint.config.items():
                if key in _RESUME_EXEMPT_FIELDS or key not in own:
                    continue
                if own[key] != value:
                    raise CheckpointError(
                        f"checkpoint config has {key}={value!r} but the "
                        f"trainer uses {key}={own[key]!r}; resuming would "
                        "not reproduce the original run — recreate the "
                        "trainer with the checkpoint's config")
        self.model.load_state_dict(checkpoint.model_state)
        if checkpoint.optimizer_state:
            self.optimizer.load_state_dict(checkpoint.optimizer_state)
        state = _FitState(rng=np.random.default_rng(self.config.seed))
        if "shuffle" in checkpoint.rng:
            restore_rng(state.rng, checkpoint.rng["shuffle"])
        if "global" in checkpoint.rng:
            restore_rng(get_rng(), checkpoint.rng["global"])
        module_rngs = dict(self._named_rngs())
        for key, payload in checkpoint.rng.items():
            if key.startswith("module:"):
                name = key[len("module:"):]
                if name in module_rngs:
                    restore_rng(module_rngs[name], payload)
        cursor = checkpoint.cursor
        state.epoch = int(cursor.get("epoch", 0))
        state.batch_index = int(cursor.get("batch_index", 0))
        order = cursor.get("day_order")
        state.day_order = ([int(d) for d in order]
                           if order is not None else None)
        state.epoch_loss = float(cursor.get("epoch_loss", 0.0))
        state.losses = [float(x) for x in cursor.get("losses", [])]
        es = checkpoint.early_stopping
        best_val = es.get("best_val")
        state.best_val = (float(best_val) if best_val is not None
                          else float("inf"))
        state.bad_epochs = int(es.get("bad_epochs", 0))
        state.best_state = (dict(checkpoint.best_model_state)
                            if checkpoint.best_model_state else None)
        self._fit_state = state

    def _resolve_checkpoint(self, ref: "Any") -> "Any":
        """Accept a TrainingCheckpoint, CheckpointManager, directory, or
        file path as a resume source."""
        from pathlib import Path

        from ..ckpt.checkpoint import (CheckpointError, TrainingCheckpoint,
                                       load)
        from ..ckpt.manager import CheckpointManager

        if isinstance(ref, TrainingCheckpoint):
            return ref
        if isinstance(ref, (str, Path)) and Path(ref).is_dir():
            ref = CheckpointManager(ref)
        if isinstance(ref, CheckpointManager):
            checkpoint = ref.latest_valid()
            if checkpoint is None:
                raise CheckpointError(
                    f"no valid checkpoint found in {ref.directory}; "
                    "nothing to resume from — start a fresh fit")
            return checkpoint
        return load(ref)

    # ------------------------------------------------------------------
    def fit(self, callbacks: Optional[Sequence[TrainerCallback]] = None,
            resume_from: "Any" = None) -> List[float]:
        """Run the training epochs; returns the per-epoch mean loss.

        ``callbacks`` receive the :class:`TrainerCallback` events in order:
        ``on_epoch_start``, ``on_batch_end`` per training day,
        ``on_epoch_end``, and a final ``on_fit_end``.  Each phase of the
        inner loop is traced (:mod:`repro.obs`) under ``data_prep`` /
        ``forward`` / ``backward`` / ``optimizer_step`` spans.

        ``resume_from`` continues an interrupted run: pass a
        :class:`~repro.ckpt.TrainingCheckpoint`, a checkpoint file path, a
        checkpoint directory, or a :class:`~repro.ckpt.CheckpointManager`
        (directories/managers resolve to the newest checkpoint that
        passes checksum verification).  A resumed fit replays nothing and
        skips nothing: per-epoch losses are bitwise-identical to the run
        that was never interrupted.

        The whole loop runs under the config's numerics settings:
        ``dtype_policy`` (activated as the thread's dtype policy),
        ``fused_kernels``, and — when ``buffer_arena`` is set — the
        backward buffer arena.

        With ``dist_workers`` non-zero the fit is delegated to the
        :mod:`repro.dist` data-parallel loop (same callbacks, same
        events; see :func:`repro.dist.fit_distributed` for its two
        restrictions).

        Either loop runs with the process heap retained
        (:func:`repro.tensor.arena.retain_heap`), set before any dist
        worker forks so the workers inherit it.
        """
        cfg = self.config
        retain_heap()
        if cfg.dist_workers:
            from ..dist.trainer import fit_distributed
            return fit_distributed(self, callbacks=callbacks,
                                   resume_from=resume_from)
        with dtype_policy(cfg.dtype_policy), \
                fused_kernels(cfg.fused_kernels):
            if cfg.buffer_arena:
                with arena():
                    return self._fit_loop(callbacks, resume_from)
            return self._fit_loop(callbacks, resume_from)

    def _fit_loop(self, callbacks: Optional[Sequence[TrainerCallback]],
                  resume_from: "Any") -> List[float]:
        cfg = self.config
        events = CallbackList(callbacks or ())
        train_days, validation_days = self._training_days()
        if resume_from is not None:
            self.load_state_dict(self._resolve_checkpoint(resume_from))
        else:
            # A fresh fit always restarts from epoch 0 (matching the
            # historical contract); only resume_from continues a run.
            self._fit_state = _FitState(rng=np.random.default_rng(cfg.seed))
        state = self._fit_state
        anchor = self._rollback_anchor(callbacks or ())
        rollbacks = 0
        self.model.train()
        params = list(self.model.parameters())
        while state.epoch < cfg.epochs:
            epoch = state.epoch
            if state.day_order is None:
                order = np.array(train_days)
                if cfg.shuffle:
                    state.rng.shuffle(order)
                state.day_order = [int(d) for d in order]
                state.batch_index = 0
                state.epoch_loss = 0.0
            if state.batch_index == 0:
                events.on_epoch_start(self, epoch)
            order_days = state.day_order
            rolled_back = False
            with trace("epoch"):
                index = state.batch_index
                while index < len(order_days):
                    day = order_days[index]
                    with trace("data_prep"):
                        features = self.dataset.features(int(day),
                                                         cfg.window,
                                                         cfg.num_features)
                        label = self.dataset.label(int(day))
                    self.optimizer.zero_grad()
                    with trace("forward"):
                        scores = self.model(Tensor(features))
                        if self.loss_fn is not None:
                            loss = self.loss_fn(scores, Tensor(label),
                                                params)
                        else:
                            loss = combined_loss(
                                scores, Tensor(label), cfg.alpha,
                                parameters=params,
                                weight_decay=cfg.weight_decay)
                    batch_loss = loss.item()
                    if not np.isfinite(batch_loss):
                        rollbacks += 1
                        if self._handle_non_finite(batch_loss, epoch,
                                                   int(day), anchor,
                                                   rollbacks):
                            state = self._fit_state
                            rolled_back = True
                            break
                    with trace("backward"):
                        loss.backward()
                    with trace("optimizer_step"):
                        if cfg.grad_clip:
                            clip_grad_norm_(params, cfg.grad_clip)
                        self.optimizer.step()
                    state.epoch_loss += batch_loss
                    index += 1
                    state.batch_index = index
                    events.on_batch_end(self, epoch, int(day), batch_loss)
            if rolled_back:
                continue
            mean_loss = state.epoch_loss / max(len(order_days), 1)
            state.losses.append(mean_loss)
            state.day_order = None
            state.batch_index = 0
            state.epoch_loss = 0.0
            state.epoch = epoch + 1
            # Early-stopping bookkeeping runs before on_epoch_end so a
            # checkpoint taken in that event already carries this epoch's
            # best-state update.
            stop = False
            if cfg.early_stopping_patience is not None:
                val_loss = self._validation_loss(validation_days)
                if val_loss < state.best_val:
                    state.best_val = val_loss
                    state.best_state = self.model.state_dict()
                    state.bad_epochs = 0
                else:
                    state.bad_epochs += 1
                    stop = state.bad_epochs >= cfg.early_stopping_patience
            events.on_epoch_end(self, epoch, mean_loss)
            if stop:
                break
        if state.best_state is not None:
            self.model.load_state_dict(state.best_state)
        events.on_fit_end(self, state.losses)
        return state.losses

    def _rollback_anchor(self, callbacks: Sequence[TrainerCallback]):
        """The CheckpointCallback to roll back through, if any is wired."""
        try:
            from ..ckpt.callback import CheckpointCallback
        except ImportError:                     # pragma: no cover
            return None
        for cb in callbacks:
            if isinstance(cb, CheckpointCallback):
                return cb
        return None

    def _handle_non_finite(self, batch_loss: float, epoch: int, day: int,
                           anchor, rollbacks: int) -> bool:
        """Apply ``cfg.nan_policy``; returns True when a rollback was
        performed (the caller restarts its loop from the restored state).
        """
        cfg = self.config
        detail = (f"non-finite loss {batch_loss!r} at epoch {epoch}, "
                  f"day {day}")
        if cfg.nan_policy == "ignore":
            warnings.warn(detail + " (nan_policy='ignore')",
                          RuntimeWarning, stacklevel=3)
            return False
        if cfg.nan_policy == "rollback":
            try:
                checkpoint = (anchor.manager.latest_valid()
                              if anchor is not None else None)
            except Exception as exc:      # every archive corrupt
                raise NonFiniteLossError(
                    detail + f"; nan_policy='rollback' found no usable "
                    f"checkpoint: {exc}") from exc
            if checkpoint is None:
                raise NonFiniteLossError(
                    detail + "; nan_policy='rollback' needs a "
                    "CheckpointCallback with at least one saved "
                    "checkpoint, and none was found")
            if rollbacks > cfg.max_rollbacks:
                raise NonFiniteLossError(
                    detail + f"; gave up after {cfg.max_rollbacks} "
                    "rollbacks — the run is diverging even at reduced "
                    "learning rates")
            self.load_state_dict(checkpoint)
            # Identical state would produce the identical NaN, so nudge
            # the trajectory the conservative way: halve the step size.
            self.optimizer.lr = self.optimizer.lr / 2.0
            warnings.warn(
                detail + f"; rolled back to epoch "
                f"{checkpoint.epoch}/batch {checkpoint.batch_index} and "
                f"halved the learning rate to {self.optimizer.lr:g} "
                f"(rollback {rollbacks}/{cfg.max_rollbacks})",
                RuntimeWarning, stacklevel=3)
            return True
        raise NonFiniteLossError(
            detail + "; inspect gradients/learning rate, or set "
            "nan_policy='rollback' with a CheckpointCallback to recover "
            "automatically")

    def _validation_loss(self, days: Sequence[int]) -> float:
        """Mean combined loss over held-out validation days (no grads)."""
        return self.evaluate(days)["loss"]

    # ------------------------------------------------------------------
    def evaluate(self, days: Optional[Sequence[int]] = None
                 ) -> Dict[str, Union[float, int]]:
        """Mean combined loss of the current model over ``days``.

        ``days`` defaults to the dataset's chronological test split.
        Returns ``{"loss": mean_combined_loss, "num_days": n}``; runs in
        eval mode with gradients disabled and restores train mode after.
        """
        cfg = self.config
        if days is None:
            _, days = self.dataset.split(cfg.window)
        self.model.eval()
        total = 0.0
        with dtype_policy(cfg.dtype_policy), \
                fused_kernels(cfg.fused_kernels), no_grad():
            for day in days:
                with trace("data_prep"):
                    features = self.dataset.features(int(day), cfg.window,
                                                     cfg.num_features)
                    label = self.dataset.label(int(day))
                with trace("inference"):
                    scores = self.model(Tensor(features))
                total += combined_loss(scores, Tensor(label),
                                       cfg.alpha).item()
        self.model.train()
        return {"loss": total / max(len(days), 1), "num_days": len(days)}

    # ------------------------------------------------------------------
    def predict(self, days: Sequence[int]) -> np.ndarray:
        """Score every stock on each requested day: ``(len(days), N)``."""
        cfg = self.config
        self.model.eval()
        rows = []
        with dtype_policy(cfg.dtype_policy), \
                fused_kernels(cfg.fused_kernels), no_grad():
            for day in days:
                with trace("data_prep"):
                    features = self.dataset.features(int(day), cfg.window,
                                                     cfg.num_features)
                with trace("inference"):
                    rows.append(self.model(Tensor(features)).data.copy())
        self.model.train()
        return np.stack(rows, axis=0)

    # ------------------------------------------------------------------
    def run(self, callbacks: Optional[Sequence[TrainerCallback]] = None,
            resume_from: "Any" = None) -> TrainResult:
        """Train, then predict the full test range; timed for Figure 5."""
        cfg = self.config
        start = time.perf_counter()
        epoch_losses = self.fit(callbacks=callbacks,
                                resume_from=resume_from)
        train_seconds = time.perf_counter() - start

        _, test_days = self.dataset.split(cfg.window)
        start = time.perf_counter()
        predictions = self.predict(test_days)
        test_seconds = time.perf_counter() - start
        actuals = np.stack([self.dataset.label(day) for day in test_days])
        return TrainResult(epoch_losses=epoch_losses,
                           train_seconds=train_seconds,
                           test_seconds=test_seconds,
                           test_days=list(test_days),
                           predictions=predictions, actuals=actuals)
