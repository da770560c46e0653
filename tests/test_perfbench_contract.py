"""What ``perfbench/`` reaches in the program still exists.

The benchmark times layers by wrapping public callables by name and
drives the server and the checkpoint fit through ``repro.cli`` argv.  A
rename or a removed flag in ``src/`` does not fail any other test; it
makes a benchmark run exit non-zero.  These tests run the
benchmark's own span installers and capture its own argv, so a change
that breaks the benchmark's entry points fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import cli
from repro.baselines.registry import get_spec
from repro.nn.module import Module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    """perfbench's modules import one another by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import serve
        import serve_host
        import spans
        import train
        yield {"serve": serve, "serve_host": serve_host, "spans": spans,
               "train": train}
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("installer", ["train.install_train_spans",
                                       "serve_host.install_serve_spans"])
def test_every_wrapped_callable_exists(perfbench_modules, installer):
    """Installing the spans looks up every wrapped name; a renamed module
    function or method raises, and a renamed ``forward`` would leave the
    inherited ``Module.forward`` stub in its place."""
    module_name, function_name = installer.split(".")
    recorder = perfbench_modules["spans"].SpanRecorder(None)
    install = getattr(perfbench_modules[module_name], function_name)
    try:
        install(recorder)
        assert recorder._patches
        for owner, attr, _ in recorder._patches:
            assert getattr(owner, attr).__wrapped__ is not Module.forward, \
                f"{owner.__name__}.{attr}"
    finally:
        recorder.uninstall()


def _parse_exactly(argv):
    """Parse ``argv`` as ``repro.cli`` does, with every flag spelled in
    full: argparse would otherwise take a removed ``--mode`` as an
    abbreviation of ``--model``."""
    parser = cli.build_parser()
    command = parser._subparsers._group_actions[0].choices[argv[0]]
    unknown = [token for token in argv[1:] if token.startswith("--")
               and token not in command._option_string_actions]
    assert not unknown, f"{argv[0]} has no flag {unknown}"
    return parser.parse_args(argv)


class _Started(Exception):
    """Raised in place of starting the server process."""


def test_serve_argv_parses(perfbench_modules, monkeypatch, tmp_path):
    serve = perfbench_modules["serve"]
    captured = {}

    def fake_popen(cmd, **kwargs):
        captured["cmd"] = cmd
        raise _Started

    monkeypatch.setattr(serve.subprocess, "Popen", fake_popen)
    with pytest.raises(_Started):
        serve.Server(tmp_path / "ckpt", tmp_path / "server.log")
    cmd = captured["cmd"]
    assert Path(cmd[1]).name == "serve_host.py"
    args = _parse_exactly(cmd[2:])
    config = cli._serve_config_from_args(args)
    assert (config.mode, config.cluster_workers) == ("cluster", 1)


def test_checkpoint_train_argv_parses(perfbench_modules, monkeypatch,
                                      tmp_path):
    serve = perfbench_modules["serve"]
    captured = {}

    def fake_main(argv):
        captured["argv"] = argv
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    serve.train_checkpoint(tmp_path / "ckpt", 7)
    args = _parse_exactly(captured["argv"])
    assert args.model == serve.MODEL
    get_spec(args.model)
    config = cli._config_from_args(args)
    assert (config.window, config.epochs) == (20, 1)
