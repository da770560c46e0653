"""Op profiler: recording, clean install/uninstall, numeric transparency."""

import importlib
import json

import numpy as np
import pytest

import repro.tensor.ops as ops
from repro.cli import main
from repro.core import (RTGCN, TemporalConvolution, TrainConfig, Trainer,
                        combined_loss, l2_penalty)
from repro.data import load_market
from repro.graph import TimeSensitiveStrategy
from repro.nn import LSTM, CausalConv1d, CausalWeightNormConv1d
from repro.obs import OpProfiler, active_profiler
from repro.tensor import Tensor, fused_kernels, retain_heap


def small_graph():
    a = Tensor(np.arange(12.0).reshape(3, 4) + 1.0, requires_grad=True)
    b = Tensor(np.ones((4, 2)), requires_grad=True)
    out = ((a @ b) * 2.0 + 1.0).tanh().sum()
    return a, b, out


class TestRecording:
    def test_forward_and_backward_recorded(self):
        with OpProfiler() as prof:
            a, b, out = small_graph()
            out.backward()
        for key in [("matmul", "forward"), ("mul", "forward"),
                    ("add", "forward"), ("tanh", "forward"),
                    ("sum", "forward"), ("matmul", "backward"),
                    ("tanh", "backward"), ("sum", "backward")]:
            assert key in prof.records, f"missing {key}"
        stat = prof.records[("matmul", "forward")]
        assert stat.count == 1
        assert stat.seconds >= 0.0
        assert stat.bytes == 3 * 2 * 8    # (3,2) float64 output

    def test_counts_accumulate(self):
        with OpProfiler() as prof:
            x = Tensor(np.ones(4), requires_grad=True)
            for _ in range(5):
                _ = x * 2.0
        assert prof.records[("mul", "forward")].count == 5

    def test_conv1d_attributes_window_gather(self):
        # The composed reference path (fusion off) gathers windows and
        # contracts them with einsum.
        with fused_kernels(False), OpProfiler() as prof:
            x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 12)),
                       requires_grad=True)
            conv = CausalConv1d(3, 4, 3, rng=np.random.default_rng(1))
            conv(x).sum().backward()
        assert ("conv1d_window", "forward") in prof.records
        assert ("conv1d_window", "backward") in prof.records
        assert ("einsum", "backward") in prof.records
        assert ("conv1d_fused", "forward") not in prof.records

    def test_fused_conv1d_is_one_attributed_node(self):
        with fused_kernels(True), OpProfiler() as prof:
            x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 12)),
                       requires_grad=True)
            conv = CausalConv1d(3, 4, 3, rng=np.random.default_rng(1))
            conv(x).sum().backward()
        assert prof.records[("conv1d_fused", "forward")].count == 1
        assert prof.records[("conv1d_fused", "backward")].count == 1
        assert not any(op in ("conv1d_window", "einsum", "pad")
                       for op, _ in prof.records)

    def test_fused_time_adjacency_is_one_attributed_node(self):
        dataset = load_market("csi-mini", seed=0)
        strategy = TimeSensitiveStrategy(dataset.relations,
                                         rng=np.random.default_rng(1),
                                         graph_mode="dense")
        features = Tensor(np.random.default_rng(0).normal(
            size=(3, dataset.relations.num_stocks, 4)))
        with fused_kernels(True), OpProfiler() as prof:
            strategy(features).sum().backward()
        assert prof.records[("time_adjacency_fused", "forward")].count == 1
        assert prof.records[("time_adjacency_fused", "backward")].count == 1
        assert not any(op in ("einsum", "abs", "pow", "unsqueeze")
                       for op, _ in prof.records)

    def test_fused_weight_norm_is_one_attributed_node(self):
        conv = CausalWeightNormConv1d(3, 4, 3, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 12)))
        with fused_kernels(True), OpProfiler() as prof:
            conv(x).sum().backward()
        assert prof.records[("weight_norm_fused", "forward")].count == 1
        assert prof.records[("weight_norm_fused", "backward")].count == 1
        assert not any(op in ("sqrt", "div") for op, _ in prof.records)

    def test_fused_l2_penalty_is_one_attributed_node(self):
        params = [Tensor(np.ones((3, 2)), requires_grad=True),
                  Tensor(np.ones(4), requires_grad=True)]
        with fused_kernels(True), OpProfiler() as prof:
            l2_penalty(params).backward()
        assert prof.records[("l2_penalty_fused", "forward")].count == 1
        assert prof.records[("l2_penalty_fused", "backward")].count == 1
        assert not any(op in ("mul", "sum", "add")
                       for op, _ in prof.records)

    def test_fused_temporal_block_is_one_attributed_node(self):
        """The block runs conv1d_fused's GEMMs through private helpers, so
        only its own row (and the two weight-norm parents) is recorded."""
        conv = TemporalConvolution(3, 4, stride=2, dropout=0.1,
                                   rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).normal(size=(12, 5, 3)),
                   requires_grad=True)
        with fused_kernels(True), OpProfiler() as prof:
            conv(x).sum().backward()
        assert prof.records[("temporal_block_fused", "forward")].count == 1
        assert prof.records[("temporal_block_fused", "backward")].count == 1
        assert prof.records[("weight_norm_fused", "forward")].count == 2
        assert not any(op in ("conv1d_fused", "transpose", "relu", "mul",
                              "add") for op, _ in prof.records)

    def test_fused_lstm_layer_is_one_attributed_node(self):
        """A whole LSTM sequence is one ``lstm_layer_fused`` row per layer;
        no per-step cell or gate arithmetic is recorded."""
        lstm = LSTM(3, 4, num_layers=2, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 6, 3)),
                   requires_grad=True)
        with fused_kernels(True), OpProfiler() as prof:
            _, (h, _) = lstm(x)
            h.sum().backward()
        assert prof.records[("lstm_layer_fused", "forward")].count == 2
        # The top layer's node, then the bottom layer's outputs handle and
        # its node.
        assert prof.records[("lstm_layer_fused", "backward")].count == 3
        assert not any(op in ("lstm_cell_fused", "sigmoid", "tanh", "mul",
                              "add", "matmul", "getitem", "stack")
                       for op, _ in prof.records)

    def test_fused_rank_loss_is_one_attributed_node(self):
        rng = np.random.default_rng(0)
        scores = Tensor(rng.normal(size=9), requires_grad=True)
        with fused_kernels(True), OpProfiler() as prof:
            combined_loss(scores, Tensor(rng.normal(size=9)),
                          0.1).backward()
        assert prof.records[("rank_loss_fused", "forward")].count == 1
        assert prof.records[("rank_loss_fused", "backward")].count == 1
        assert not any(op in ("mul", "sum", "add", "relu", "unsqueeze")
                       for op, _ in prof.records)

    def test_reflected_operators_recorded(self):
        with OpProfiler() as prof:
            x = Tensor(np.ones(3), requires_grad=True)
            _ = 2.0 + x          # __radd__ alias of __add__
            _ = 3.0 * x          # __rmul__ alias of __mul__
        assert prof.records[("add", "forward")].count == 1
        assert prof.records[("mul", "forward")].count == 1

    def test_rows_and_table(self):
        with OpProfiler() as prof:
            _ = Tensor(np.ones(3)) + 1.0
        rows = prof.as_rows()
        assert rows and set(rows[0]) == {"op", "pass", "count", "seconds",
                                         "bytes"}
        assert "add" in prof.table(top=3)


class TestInstallation:
    def test_primitives_restored_after_exit(self):
        original_add = Tensor.__add__
        original_einsum = ops.einsum
        with OpProfiler():
            assert Tensor.__add__ is not original_add
            assert ops.einsum is not original_einsum
        assert Tensor.__add__ is original_add
        assert Tensor.__radd__ is Tensor.__add__
        assert ops.einsum is original_einsum
        assert active_profiler() is None

    def test_restored_even_on_error(self):
        original_add = Tensor.__add__
        with pytest.raises(RuntimeError):
            with OpProfiler():
                raise RuntimeError("boom")
        assert Tensor.__add__ is original_add

    def test_nothing_recorded_outside_context(self):
        prof = OpProfiler()
        with prof:
            pass
        _ = Tensor(np.ones(3)) + 1.0
        assert prof.records == {}

    def test_nested_profilers_rejected(self):
        with OpProfiler():
            with pytest.raises(RuntimeError, match="nest"):
                OpProfiler().install()

    def test_uninstall_is_idempotent(self):
        prof = OpProfiler().install()
        prof.uninstall()
        prof.uninstall()
        assert active_profiler() is None


class TestNumericTransparency:
    def run_training(self, dataset, profiled):
        model = RTGCN(dataset.relations, relational_filters=4, dropout=0.0,
                      rng=np.random.default_rng(3))
        trainer = Trainer(model, dataset, TrainConfig(
            window=8, epochs=2, max_train_days=6, seed=0))
        if profiled:
            with OpProfiler() as prof:
                losses = trainer.fit()
            assert prof.records   # the run was actually observed
        else:
            losses = trainer.fit()
        _, test_days = dataset.split(8)
        return losses, trainer.predict(test_days[:3])

    def test_profiled_run_bit_identical(self, nasdaq_mini):
        losses_off, preds_off = self.run_training(nasdaq_mini, False)
        losses_on, preds_on = self.run_training(nasdaq_mini, True)
        assert losses_off == losses_on              # bit-identical floats
        assert np.array_equal(preds_off, preds_on)


class TestProfileHeapReport:
    """`repro.cli profile` puts the allocator's page-fault cost next to the
    arena summary, in the printed footer and the JSON metrics."""

    def profile(self, tmp_path, capsys, model):
        path = tmp_path / "profile.json"
        assert main(["profile", "--market", "csi-mini", "--model", model,
                     "--epochs", "1", "--window", "6",
                     "--max-train-days", "5", "--top", "3",
                     "--json", str(path)]) == 0
        metrics = json.loads(path.read_text())["metrics"]
        return capsys.readouterr().out, metrics

    def test_fields_in_footer_and_report(self, tmp_path, capsys):
        out, metrics = self.profile(tmp_path, capsys, "LSTM")
        # the fit already asked; this call only reads the outcome
        assert metrics["heap_retained"] is retain_heap()
        assert isinstance(metrics["minflt_per_step"], float)
        assert metrics["minflt_per_step"] >= 0.0
        flag = "yes" if metrics["heap_retained"] else "no"
        assert (f"heap: retained={flag} "
                f"minflt_per_step={metrics['minflt_per_step']:.1f}") in out

    def test_reports_an_unretained_heap(self, tmp_path, capsys,
                                        monkeypatch):
        arena_module = importlib.import_module("repro.tensor.arena")
        monkeypatch.setattr(arena_module, "_heap_retained", False)
        out, metrics = self.profile(tmp_path, capsys, "LSTM")
        assert metrics["heap_retained"] is False
        assert "heap: retained=no" in out

    def test_model_without_optimizer_steps(self, tmp_path, capsys):
        _, metrics = self.profile(tmp_path, capsys, "ARIMA")
        assert metrics["minflt_per_step"] == 0.0
