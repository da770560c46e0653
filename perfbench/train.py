"""train-rtgcn and train-lstm: the Fig. 5 training protocol on nasdaq-mini.

Both workloads run ``Trainer.fit`` for a fixed number of full epochs at
T=20 in float64 with the default fused kernels, timing a one-day
``Trainer.predict`` of the next test day after every second step.  The
seed picks the model initialisation and the shuffle order; the market
itself is fixed, so the work per step is the same on every seed.

The epoch count is fixed rather than timed so the final epoch loss can be
compared bitwise with the value recorded for the seed in
``reference_losses.json``.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from hostref import NOMINAL_S, HostReference
from result import Result, percentile
from spans import SpanRecorder, load_dumps, merge, self_times

HERE = Path(__file__).resolve().parent
MARKET = "nasdaq-mini"
MARKET_SEED = 0
WINDOW = 20
EPOCHS = 5              # 5 x 220 days = 1100 optimizer steps per run
PREDICT_EVERY = 2       # one timed one-day predict per 2 steps: 550 calls
SETUP_REPEATS = 5
REF_EVERY = 10          # reference-kernel samples: one per 10 timed calls
SEED_CLASSES = 8        # seed % 8 picks the model init and shuffle order
MODELS = {"train-rtgcn": "RT-GCN (T)", "train-lstm": "Rank_LSTM"}
REFERENCE_FILE = HERE / "reference_losses.json"
#: relative loss tolerance when the bits differ; only a change of BLAS
#: kernel (OpenBLAS picks one per CPU) or of reduction order explains it
LOSS_RTOL = 1e-9


def model_seed(seed: int) -> int:
    return seed % SEED_CLASSES


def build(workload: str, seed: int):
    """Load the market, build the model and its Trainer (the set-up)."""
    from repro.baselines import LSTMScorer
    from repro.core import RTGCN, TrainConfig, Trainer
    from repro.data import load_market

    dataset = load_market(MARKET, seed=MARKET_SEED)
    rng = np.random.default_rng(model_seed(seed))
    if workload == "train-rtgcn":
        model = RTGCN(dataset.relations, strategy="time", rng=rng)
    else:
        model = LSTMScorer(rng=rng)
    config = TrainConfig(window=WINDOW, epochs=EPOCHS, seed=model_seed(seed))
    return Trainer(model, dataset, config)


class StepClock:
    """Trainer callback: wall time of every optimizer step and epoch.

    A step runs from the end of the previous ``on_batch_end`` (or
    ``on_epoch_start``) to its own ``on_batch_end``.  Between steps it
    takes reference-kernel samples and, given ``test_days``, times one
    ``Trainer.predict`` of the next test day every ``PREDICT_EVERY``
    steps, so predict calls see the same host-speed episodes as the steps
    instead of a few seconds of their own.  That work is excluded from
    step and epoch times.  With a recorder, each step is also a root span,
    so the layer spans opened inside it nest under it.
    """

    def __init__(self, ref: HostReference, steps_per_epoch: int,
                 recorder: Optional[SpanRecorder] = None,
                 test_days: Sequence[int] = ()):
        from repro.tensor import tape_node_count

        self.ref = ref
        self.steps_per_epoch = steps_per_epoch
        self.recorder = recorder
        self.test_days = list(test_days)
        self.tape_node_count = tape_node_count
        self.steps: List[float] = []
        self.epochs: List[float] = []
        self.losses: List[float] = []
        self.tape_nodes: List[int] = []
        self.epoch_refs: List[float] = []
        self.predicts: List[float] = []
        self.bad_predictions = 0
        self._span = None

    def _open(self) -> None:
        if self.recorder is not None:
            self._span = self.recorder.begin("step")
        self._tape = self.tape_node_count()
        self._t0 = time.perf_counter()

    def on_epoch_start(self, trainer, epoch):
        self._epoch_mark = self.ref.mark()
        self._epoch_t0 = time.perf_counter()
        self._excluded = 0.0
        self._in_epoch = 0
        self._open()

    def on_batch_end(self, trainer, epoch, day, loss):
        now = time.perf_counter()
        if self._span is not None:
            self.recorder.end(self._span)
            self._span = None
        self.steps.append(now - self._t0)
        self.tape_nodes.append(self.tape_node_count() - self._tape)
        self.losses.append(loss)
        self._in_epoch += 1
        done = len(self.steps)
        if self.test_days and done % PREDICT_EVERY == 0:
            index = done // PREDICT_EVERY
            test_day = self.test_days[index % len(self.test_days)]
            start = time.perf_counter()
            row = trainer.predict([test_day])
            self.predicts.append(time.perf_counter() - start)
            self.bad_predictions += int(not np.all(np.isfinite(row)))
        if done % REF_EVERY == 0:
            self.ref.sample()
        self._excluded += time.perf_counter() - now
        if self._in_epoch < self.steps_per_epoch:
            self._open()

    def on_epoch_end(self, trainer, epoch, mean_loss):
        self.epochs.append(time.perf_counter() - self._epoch_t0
                           - self._excluded)
        self.epoch_refs.append(self.ref.median(self._epoch_mark))

    def on_fit_end(self, trainer, losses):
        pass


def measure_setup(workload: str, seed: int, ref: HostReference):
    """Build SETUP_REPEATS times, each bracketed by reference samples."""
    walls, normalised = [], []
    trainer = None
    ref.sample(3)
    for _ in range(SETUP_REPEATS):
        before = ref.sample(2)
        start = time.perf_counter()
        trainer = build(workload, seed)
        wall = time.perf_counter() - start
        after = ref.sample(2)
        walls.append(wall)
        normalised.append(wall * NOMINAL_S / ((before + after) / 2))
    return trainer, walls, normalised


def check_loss(workload: str, seed: int, loss: float) -> Dict[str, object]:
    """Compare the final epoch loss with the recorded one for the seed."""
    table = json.loads(REFERENCE_FILE.read_text())
    recorded = table.get(workload, {}).get(str(model_seed(seed)))
    out = {"final_loss": repr(loss), "recorded_loss": recorded,
           "loss_bitwise": False, "loss_ok": False}
    if recorded is not None:
        expected = float(recorded)
        out["loss_bitwise"] = loss == expected
        out["loss_ok"] = bool(np.isfinite(loss)) and (
            loss == expected
            or abs(loss - expected) <= LOSS_RTOL * abs(expected))
    return out


def check_predict(trainer) -> int:
    """Mismatches between a full-split predict and one-day predicts."""
    _, test_days = trainer.dataset.split(trainer.config.window)
    full = trainer.predict(test_days)
    bad = int(not np.all(np.isfinite(full)))
    for row, day in zip(full, test_days):
        bad += int(not np.array_equal(row, trainer.predict([day])[0]))
    return bad


def run(workload: str, seed: int, trace: bool, out_dir: Path) -> Result:
    ref = HostReference()
    trainer, setup_walls, setup_norm = measure_setup(workload, seed, ref)
    if trace:
        return _run_traced(workload, seed, ref, setup_norm, out_dir)

    fit_mark = ref.mark()
    _, test_days = trainer.dataset.split(trainer.config.window)
    clock = StepClock(ref, steps_per_epoch(trainer), test_days=test_days)
    losses = trainer.fit(callbacks=[clock])
    factor = ref.factor(fit_mark)

    result = Result()
    result.count("step", len(clock.steps),
                 sum(1 for x in clock.losses if not np.isfinite(x)))
    result.count("predict", len(clock.predicts), clock.bad_predictions)
    result.count("predict_check", len(test_days) + 1, check_predict(trainer))
    loss_check = check_loss(workload, seed, float(losses[-1]))
    result.count("final_loss", 1, 0 if loss_check["loss_ok"] else 1)

    steps_ms = [s * 1e3 for s in clock.steps]
    predict_ms = [w * 1e3 for w in clock.predicts]
    result.timing("main_p50_ms", "ms", percentile(steps_ms, 50), factor,
                  len(steps_ms), "optimizer step p50 (step_p50_ms)")
    # an epoch is a sum over 220 steps, so it follows the host's speed
    # during that epoch: normalise each by the samples taken within it
    epoch_s = statistics.median(clock.epochs)
    epoch_norm = statistics.median(
        wall * NOMINAL_S / ref_s
        for wall, ref_s in zip(clock.epochs, clock.epoch_refs))
    result.rate("throughput_per_s", "1/s", clock.steps_per_epoch / epoch_s,
                factor, len(clock.steps),
                "steps per second of the median epoch (Fig. 5)",
                normalised=clock.steps_per_epoch / epoch_norm)
    result.timing("setup_s", "s", statistics.median(setup_walls), factor,
                  len(setup_norm), "load market + build model + Trainer",
                  normalised=statistics.median(setup_norm))
    result.plain("peak_rss_mb", "MB", peak_rss_mb(), "peak RSS")
    # context, printed but not bounded: Fig. 5's column, the tail, and
    # predict latency (its run-to-run spread reached 0.27 on this host)
    result.timing("epoch_s", "s", epoch_s, factor, len(clock.epochs),
                  "median epoch (Fig. 5 train column)", normalised=epoch_norm)
    result.timing("predict_p50_ms", "ms", percentile(predict_ms, 50),
                  factor, len(predict_ms), "one-day predict p50")
    result.timing("step_p99_ms", "ms", percentile(steps_ms, 99), factor,
                  len(steps_ms), "optimizer step p99")
    result.timing("predict_p95_ms", "ms", percentile(predict_ms, 95),
                  factor, len(predict_ms), "one-day predict p95")
    result.context.update(loss_check)
    result.context.update({
        "epochs": len(clock.epochs), "steps": len(clock.steps),
        "tape_nodes_per_step": statistics.median(clock.tape_nodes),
        "model": MODELS[workload], "model_seed": model_seed(seed),
        "universe": trainer.dataset.num_stocks,
        "relation_types": trainer.dataset.relations.num_types,
        "window": WINDOW, "dtype_policy": trainer.config.dtype_policy,
        "fused_kernels": trainer.config.fused_kernels})
    result.reference(ref)
    return result


def steps_per_epoch(trainer) -> int:
    return len(trainer.dataset.split(trainer.config.window)[0])


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
#: span name -> per-layer metric it is reported under
LAYER_OF = {
    "data.features": "data.features_ms",
    "graph.adjacency": "graph.adjacency_ms",
    "core.relational": "core.relational_ms",
    "core.temporal": "core.temporal_ms",
    "core.head": "core.head_ms",
    "core.loss": "core.loss_ms",
    "baselines.lstm": "baselines.lstm_ms",
    "tensor.backward": "tensor.backward_ms",
    "optim.step": "optim.step_ms",
    "step": "unattributed_ms",
}

#: days of the short fit the traced run profiles per op
PROFILED_STEPS = 40
#: ops whose forward/backward cost the traced run reports per step
PROFILED_OPS = ("einsum", "conv1d_window", "gcn_propagate_fused",
                "lstm_cell_fused", "mul", "add", "sum")


def install_train_spans(recorder: SpanRecorder) -> None:
    """Wrap the public callables of every layer a training step crosses."""
    import repro.core.trainer as trainer_module
    from repro.baselines import LSTMScorer
    from repro.core import RTGCN, RelationalGraphConvolution
    from repro.core.temporal import TemporalConvolution
    from repro.data import StockDataset
    from repro.graph import TimeSensitiveStrategy
    from repro.optim import Adam
    from repro.tensor import Tensor

    recorder.wrap(StockDataset, "features", "data.features")
    recorder.wrap(TimeSensitiveStrategy, "forward", "graph.adjacency")
    recorder.wrap(RelationalGraphConvolution, "forward", "core.relational")
    recorder.wrap(TemporalConvolution, "forward", "core.temporal")
    recorder.wrap(RTGCN, "forward", "core.head")
    recorder.wrap(LSTMScorer, "forward", "baselines.lstm")
    recorder.wrap(trainer_module, "combined_loss", "core.loss")
    recorder.wrap(Tensor, "backward", "tensor.backward")
    recorder.wrap(trainer_module, "clip_grad_norm_", "optim.step")
    recorder.wrap(Adam, "step", "optim.step")
    recorder.wrap(Adam, "zero_grad", "optim.step")


def _one_epoch(workload: str, seed: int, ref: HostReference,
               recorder: Optional[SpanRecorder] = None) -> StepClock:
    from dataclasses import replace

    trainer = build(workload, seed)
    trainer.config = replace(trainer.config, epochs=1)
    clock = StepClock(ref, steps_per_epoch(trainer), recorder)
    trainer.fit(callbacks=[clock])
    return clock


def _run_traced(workload, seed, ref, setup_norm, out_dir: Path) -> Result:
    from dataclasses import replace

    from repro.obs import OpProfiler

    result = Result()
    # A: untraced epoch, the overhead baseline.  B: the same epoch with
    # layer spans.  Same seed, so B must reproduce A's losses bitwise.
    plain = _one_epoch(workload, seed, ref)
    recorder = SpanRecorder(str(out_dir))
    install_train_spans(recorder)
    try:
        traced = _one_epoch(workload, seed, ref, recorder)
    finally:
        recorder.uninstall()
    recorder.dump()
    same = plain.losses == traced.losses
    result.count("traced_step", len(traced.steps), 0 if same else 1)

    # C: per-op costs from the program's own OpProfiler, on a shorter fit.
    short = build(workload, seed)
    short.config = replace(short.config, epochs=1,
                           max_train_days=PROFILED_STEPS)
    with OpProfiler() as prof:
        short.fit()

    factor = ref.factor()
    steps = len(traced.steps)
    table = merge(*(self_times(d["spans"]) for d in load_dumps(str(out_dir))))
    layer_ms: Dict[str, float] = {name: 0.0 for name in LAYER_OF.values()}
    for name, (seconds, _calls) in table.items():
        layer_ms[LAYER_OF[name]] += seconds * 1e3 / steps * factor
    for metric, value in layer_ms.items():
        result.plain(metric, "ms", value)
    step_ms = statistics.fmean(traced.steps) * 1e3 * factor
    result.plain("obs.step_ms", "ms", step_ms)
    result.plain("tensor.tape_nodes", "count",
                 statistics.median(traced.tape_nodes))
    overhead = (statistics.median(traced.steps)
                / statistics.median(plain.steps) - 1.0) * 100.0
    result.plain("obs.trace_overhead_pct", "%", overhead)
    for op in PROFILED_OPS:
        for pass_, short_name in (("forward", "fwd"), ("backward", "bwd")):
            stat = prof.records.get((op, pass_))
            seconds = stat.seconds if stat is not None else 0.0
            calls = stat.count if stat is not None else 0
            result.plain(f"tensor.op.{op}.{short_name}_ms", "ms",
                         seconds * 1e3 / PROFILED_STEPS * factor)
            result.plain(f"tensor.op.{op}.{short_name}_calls", "count",
                         calls / PROFILED_STEPS)
    result.context.update({
        "traced_losses_bitwise_equal_untraced": same,
        "unattributed_share": layer_ms["unattributed_ms"] / step_ms,
        "setup_s": statistics.median(setup_norm),
        "traced_steps": steps, "profiled_steps": PROFILED_STEPS})
    result.reference(ref)
    return result
