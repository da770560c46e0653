"""Checkpoint round-trips and the command-line interface."""

import dataclasses
import json
import re

import numpy as np
import pytest

import repro.nn as nn
from repro.cli import _config_from_args, build_parser, main
from repro.core import RTGCN, TrainConfig
from repro.ckpt import (FORMAT_VERSION, CheckpointError,
                        TrainingCheckpoint, load, save)
from repro.tensor import Tensor


class TestCheckpoints:
    """Model snapshots through ``repro.ckpt`` (format details: tests/ckpt)."""

    @staticmethod
    def snapshot(model, path, **metadata):
        return save(TrainingCheckpoint(model_state=model.state_dict(),
                                       model_class=type(model).__name__,
                                       metadata=metadata), path)

    def test_roundtrip_restores_outputs(self, tmp_path, rng):
        model = nn.Sequential(nn.Linear(4, 8), nn.Tanh(), nn.Linear(8, 2))
        path = self.snapshot(model, tmp_path / "model", note="hello")
        assert path.suffix == ".npz"

        clone = nn.Sequential(nn.Linear(4, 8), nn.Tanh(), nn.Linear(8, 2))
        checkpoint = load(path)
        clone.load_state_dict(checkpoint.model_state)
        assert checkpoint.metadata["note"] == "hello"
        x = Tensor(rng.standard_normal((3, 4)))
        assert np.allclose(model(x).data, clone(x).data)

    def test_rtgcn_checkpoint(self, tmp_path, nasdaq_mini, rng):
        model = RTGCN(nasdaq_mini.relations, strategy="weight",
                      relational_filters=8, rng=rng)
        path = self.snapshot(model, tmp_path / "rtgcn.npz")
        clone = RTGCN(nasdaq_mini.relations, strategy="weight",
                      relational_filters=8,
                      rng=np.random.default_rng(999))
        clone.load_state_dict(load(path).model_state)
        feats = Tensor(np.random.default_rng(0).standard_normal((6, 48, 4)))
        model.eval()
        clone.eval()
        assert np.allclose(model(feats).data, clone(feats).data)

    def test_class_mismatch_rejected(self, tmp_path):
        path = self.snapshot(nn.Linear(3, 2), tmp_path / "linear.npz")
        checkpoint = load(path)
        assert checkpoint.model_class == "Linear"
        with pytest.raises(KeyError, match="state_dict mismatch"):
            nn.Sequential(nn.Linear(3, 2)).load_state_dict(
                checkpoint.model_state)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, data=np.zeros(3))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load(bogus)

    def test_suffix_added_automatically(self, tmp_path):
        path = self.snapshot(nn.Linear(2, 2), tmp_path / "plain")
        assert path.name == "plain.npz"
        nn.Linear(2, 2).load_state_dict(
            load(tmp_path / "plain").model_state)

    def test_writes_format_v2_readable_by_repro_ckpt(self, tmp_path):
        model = nn.Linear(3, 3)
        checkpoint = load(self.snapshot(model, tmp_path / "v2.npz"))
        assert checkpoint.format_version == FORMAT_VERSION
        assert checkpoint.model_class == "Linear"
        assert set(checkpoint.model_state) == set(model.state_dict())

    def test_legacy_v1_archive_still_loads(self, tmp_path):
        model = nn.Linear(3, 2)
        blob = np.frombuffer(
            json.dumps({"format_version": 1, "model_class": "Linear",
                        "user": {"note": "pre-rebase"}}).encode(),
            dtype=np.uint8)
        path = tmp_path / "legacy.npz"
        np.savez(path, __checkpoint_meta__=blob, **model.state_dict())
        checkpoint = load(path)
        assert checkpoint.format_version == 1
        assert checkpoint.metadata["note"] == "pre-rebase"
        clone = nn.Linear(3, 2)
        clone.load_state_dict(checkpoint.model_state)
        assert np.allclose(clone.weight.data, model.weight.data)


class TestCLI:
    def test_markets_command(self, capsys):
        assert main(["markets"]) == 0
        out = capsys.readouterr().out
        assert "nasdaq" in out and "854" in out

    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "RT-GCN (T)" in out and "STHAN-SR" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_command_quick(self, capsys):
        code = main(["train", "--market", "csi-mini", "--model", "LSTM",
                     "--epochs", "1", "--window", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IRR-5" in out

    def test_train_checkpoint_only_for_rtgcn(self):
        with pytest.raises(SystemExit):
            main(["train", "--model", "LSTM", "--checkpoint", "/tmp/x",
                  "--market", "csi-mini", "--epochs", "1"])

    def test_train_checkpoint_dir_and_resume(self, tmp_path, capsys):
        args = ["train", "--market", "csi-mini", "--epochs", "1",
                "--window", "6", "--max-train-days", "8",
                "--checkpoint-dir", str(tmp_path)]
        assert main(args) == 0
        assert any(tmp_path.glob("ckpt-*.npz"))
        # resuming a finished run is a no-op train + fresh evaluation
        assert main(args + ["--resume"]) == 0
        assert "IRR-5" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["train", "--market", "csi-mini", "--resume"])

    def test_checkpoint_dir_only_for_rtgcn(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--model", "LSTM", "--market", "csi-mini",
                  "--epochs", "1", "--checkpoint-dir", str(tmp_path)])

    def test_compare_command_quick(self, capsys):
        code = main(["compare", "--market", "csi-mini",
                     "--models", "LSTM", "--runs", "1", "--epochs", "1",
                     "--window", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LSTM" in out

    def test_sweep_command_quick(self, capsys):
        code = main(["sweep", "--markets", "csi-mini",
                     "--models", "LSTM", "--runs", "2", "--workers", "2",
                     "--epochs", "1", "--window", "6",
                     "--max-train-days", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "csi-mini" in out and "LSTM" in out
        assert "worker(s)" in out


class TestModelRegistrySync:
    """`repro.cli models` must mirror repro.baselines.registry exactly —
    a model registered there appears in the CLI with no CLI edit."""

    def test_models_output_lists_every_registered_model(self, capsys):
        from repro.baselines import available_baselines

        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in available_baselines():
            assert name in out, f"{name} missing from `models` output"

    def test_models_output_has_no_unregistered_rows(self, capsys):
        from repro.baselines import available_baselines

        assert main(["models"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        names = {line[:12].strip() for line in lines}
        registered = {name[:12].strip()
                      for name in available_baselines()}
        assert names == registered

    def test_strategy_column_matches_registry(self, capsys):
        from repro.baselines import get_spec, rtgcn_strategies

        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name, strategy in rtgcn_strategies().items():
            assert strategy == get_spec(name).strategy
            assert strategy in out

    def test_train_accepts_every_rtgcn_variant(self):
        # The checkpointable-model set is rtgcn_strategies(), not a
        # hand-kept table: every variant takes the trainer path.
        from repro.baselines import rtgcn_strategies

        strategies = rtgcn_strategies()
        assert set(strategies.values()) == {"uniform", "weight", "time"}
        for name in strategies:
            code = main(["train", "--market", "csi-mini", "--model", name,
                         "--epochs", "1", "--window", "6",
                         "--max-train-days", "6"])
            assert code == 0


class TestServeQueryCLI:
    @pytest.fixture(scope="class")
    def ckpt_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-serve")
        assert main(["train", "--market", "csi-mini", "--epochs", "1",
                     "--window", "6", "--max-train-days", "8",
                     "--checkpoint-dir", str(directory)]) == 0
        return directory

    def test_checkpoint_dir_archives_record_model_and_market(self,
                                                             ckpt_dir):
        from repro.ckpt import load

        checkpoint = load(next(iter(sorted(ckpt_dir.glob("*.npz")))))
        assert checkpoint.metadata["model"] == "RT-GCN (T)"
        assert checkpoint.metadata["market"] == "csi-mini"

    def test_query_round_trip(self, ckpt_dir, capsys):
        import json
        import threading

        from repro.serve.httpd import RankingHTTPServer
        from repro.serve.registry import ModelRegistry
        from repro.serve.service import RankingService

        service = RankingService(ModelRegistry(ckpt_dir))
        server = RankingHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            port = str(server.server_address[1])
            assert main(["query", "--top-k", "10",
                         "--port", port]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert len(payload["top_k"]) == 10
            assert payload["top_k"][0]["rank"] == 1
            assert main(["query", "--endpoint", "health",
                         "--port", port]) == 0
            assert json.loads(
                capsys.readouterr().out)["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)

    def test_serve_refuses_empty_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoints"):
            main(["serve", "--checkpoint-dir", str(tmp_path)])

    def test_query_unreachable_server_exits_nonzero(self):
        with pytest.raises(SystemExit, match="query failed"):
            main(["query", "--port", "1", "--timeout", "1"])


class TestConfigSurface:
    def test_every_trainconfig_field_has_a_flag(self):
        parser = build_parser()
        args = parser.parse_args(["train"])
        for spec in dataclasses.fields(TrainConfig):
            assert hasattr(args, spec.name), \
                f"TrainConfig.{spec.name} has no CLI flag"

    def test_previously_dropped_fields_reach_the_config(self):
        args = build_parser().parse_args(
            ["train", "--weight-decay", "1e-4", "--grad-clip", "2.5",
             "--early-stopping-patience", "3", "--max-train-days", "17",
             "--learning-rate", "0.01", "--validation-days", "9",
             "--no-shuffle"])
        config = _config_from_args(args)
        assert config.weight_decay == 1e-4
        assert config.grad_clip == 2.5
        assert config.early_stopping_patience == 3
        assert config.max_train_days == 17
        assert config.learning_rate == 0.01
        assert config.validation_days == 9
        assert config.shuffle is False

    def test_defaults_match_trainconfig_except_cli_overrides(self):
        config = _config_from_args(build_parser().parse_args(["train"]))
        reference = TrainConfig()
        for spec in dataclasses.fields(TrainConfig):
            if spec.name in ("window", "epochs"):   # intentional CLI quicks
                continue
            assert getattr(config, spec.name) == \
                getattr(reference, spec.name), spec.name

    def test_features_alias_still_accepted(self):
        args = build_parser().parse_args(["train", "--features", "2"])
        assert _config_from_args(args).num_features == 2

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_trainconfig_rejects_non_positive_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            TrainConfig(epochs=epochs)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            dataclasses.replace(TrainConfig(), epochs=epochs)

    @pytest.mark.parametrize("command", ["train", "compare", "sweep",
                                         "profile"])
    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_non_positive_epochs_is_a_usage_error(self, capsys, command,
                                                  epochs):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--epochs", epochs])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{command}: epochs must be >= 1, got {epochs}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value,message", [
        ("nan_policy", "shrug", "nan_policy must be 'raise', 'ignore' or "
                                "'rollback', got 'shrug'"),
        ("graph_mode", "csr", "graph_mode must be 'auto', 'dense' or "
                              "'sparse', got 'csr'"),
        ("dist_days_per_step", 0, "dist_days_per_step must be >= 1, got 0"),
        ("max_train_days", 0, "max_train_days must be None or >= 1, got 0"),
        ("window", 0, "window must be >= 1, got 0"),
        ("num_features", 0, "num_features must be >= 1, got 0"),
        ("learning_rate", 0.0, "learning_rate must be > 0, got 0.0"),
        ("dtype_policy", "float16", "dtype_policy must be one of "
                                    "'float64', 'float32', 'mixed', got "
                                    "'float16'"),
        ("grad_clip", -1.0, "grad_clip must be >= 0, got -1.0"),
        ("weight_decay", -1e-6, "weight_decay must be >= 0, got -1e-06"),
        ("alpha", -0.1, "alpha must be >= 0, got -0.1"),
        ("early_stopping_patience", 0, "early_stopping_patience must be "
                                       "None or >= 1, got 0"),
        ("validation_days", 0, "validation_days must be >= 1, got 0"),
        ("max_rollbacks", -1, "max_rollbacks must be >= 0, got -1"),
    ])
    def test_trainconfig_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(TrainConfig(), **{field: value})

    @pytest.mark.parametrize("argv,message", [
        (["--nan-policy", "shrug"], "nan_policy must be"),
        (["--graph-mode", "csr"], "graph_mode must be"),
        (["--dist-days-per-step", "0"], "dist_days_per_step must be >= 1"),
        (["--dist-days-per-step", "-3"], "dist_days_per_step must be >= 1"),
        (["--max-train-days", "0"], "max_train_days must be None or >= 1"),
        (["--window", "0"], "window must be >= 1"),
        (["--features", "0"], "num_features must be >= 1"),
        (["--learning-rate", "0"], "learning_rate must be > 0"),
        (["--learning-rate=-1e-3"], "learning_rate must be > 0"),
        (["--dtype-policy", "float16"], "dtype_policy must be one of"),
        (["--grad-clip=-1"], "grad_clip must be >= 0"),
        (["--weight-decay=-1e-6"], "weight_decay must be >= 0"),
        (["--alpha=-0.1"], "alpha must be >= 0"),
        (["--early-stopping-patience", "0"],
         "early_stopping_patience must be None or >= 1"),
        (["--validation-days", "0"], "validation_days must be >= 1"),
        (["--max-rollbacks=-1"], "max_rollbacks must be >= 0"),
    ])
    def test_bad_train_field_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"train: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "NoSuchNet"],
        ["profile", "--model", "NoSuchNet"],
        ["compare", "--models", "LSTM,NoSuchNet"],
        ["sweep", "--models", "NoSuchNet"],
    ])
    def test_unknown_model_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown model 'NoSuchNet'" in err
        assert "RT-GCN (T)" in err and "Rank_LSTM" in err   # lists names
        assert "Traceback" not in err and "KeyError" not in err


class TestProfileCommand:
    def test_profile_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "profile.json"
        code = main(["profile", "--market", "csi-mini", "--model", "LSTM",
                     "--epochs", "1", "--window", "6",
                     "--max-train-days", "5", "--top", "5",
                     "--json", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        # op table and phase table are printed
        assert "op" in out and "seconds" in out
        assert "forward" in out and "backward" in out
        assert "inference" in out
        # and the machine-readable report round-trips through the schema
        from repro.obs import RunReport
        payload = json.loads(report_path.read_text())
        report = RunReport.from_dict(payload)
        assert report.kind == "profile"
        assert report.config["model"] == "LSTM"
        assert report.ops and report.phases
        assert len(report.epoch_losses) == 1      # --epochs 1
        ops_seen = {row["op"] for row in report.ops}
        # the LSTM core shows up either as raw matmuls or, with fusion
        # on (the default), as the fused cell/affine tape nodes
        assert ops_seen & {"matmul", "einsum",
                           "lstm_cell_fused", "affine_act_fused"}
