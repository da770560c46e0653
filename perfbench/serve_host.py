#!/usr/bin/env python3
"""Start ``repro.cli serve``, optionally with layer spans.

    python3 perfbench/serve_host.py [--spans DIR] serve --checkpoint-dir ...

Everything after the optional ``--spans DIR`` goes to ``repro.cli`` as
is.  With ``--spans``, the public callables a served request or ingest
crosses are wrapped before the server starts, so the forked inference
worker inherits the wrappers; each process writes its spans to ``DIR``
when it exits (the front-end after ``repro.cli`` returns on SIGINT, the
worker from a ``multiprocessing`` finaliser).
"""

from __future__ import annotations

import sys

from spans import SpanRecorder


def install_serve_spans(recorder: SpanRecorder) -> None:
    from repro.core import RTGCN, RelationalGraphConvolution
    from repro.core.temporal import TemporalConvolution
    from repro.data import StockDataset
    from repro.graph import NormalizedAdjacencyCache, TimeSensitiveStrategy
    from repro.serve.engine import InferenceEngine
    from repro.serve.service import RankingService

    recorder.wrap(InferenceEngine, "scores", "serve.forward")
    recorder.wrap(RankingService, "ingest", "serve.ingest")
    recorder.wrap(NormalizedAdjacencyCache, "apply_delta", "graph.delta",
                  counter=("graph.touched_rows", int))
    recorder.wrap(StockDataset, "features", "data.features")
    recorder.wrap(TimeSensitiveStrategy, "forward", "graph.adjacency")
    recorder.wrap(RelationalGraphConvolution, "forward", "core.relational")
    recorder.wrap(TemporalConvolution, "forward", "core.temporal")
    recorder.wrap(RTGCN, "forward", "core.head")


def main(argv) -> int:
    spans_dir = None
    if argv[:1] == ["--spans"]:
        spans_dir, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    recorder = None
    if spans_dir is not None:
        recorder = SpanRecorder(spans_dir)
        install_serve_spans(recorder)
    try:
        return cli_main(argv)
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
