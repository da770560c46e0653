"""Shared infrastructure for the per-table / per-figure benchmarks.

Every bench regenerates one artifact of the paper's evaluation section
(Tables II–VIII, Figures 5–8).  Defaults run the ``*-mini`` market presets
so the whole directory finishes on a laptop CPU; set environment variables
to scale up:

- ``RTGCN_BENCH_EPOCHS``  (default 12)  training epochs per run
- ``RTGCN_BENCH_RUNS``    (default 3)   repeated runs per model (paper: 15)
- ``RTGCN_BENCH_MARKETS`` (default "nasdaq-mini,nyse-mini,csi-mini")
- ``RTGCN_BENCH_WORKERS`` (default 1)   worker processes per experiment
  (results are bitwise-identical to serial; see docs/parallelism.md)

Each bench prints the paper-style table and writes it under
``benchmarks/results/`` (``<name>.txt`` and the strict-JSON
``<name>.json``) so the output survives pytest's capture.  Set
``RTGCN_BENCH_STORE=/path/to/experiments.sqlite`` to also record every
JSON artifact as a ``benchmark`` telemetry row (id ``bench:<name>``) in
the experiment store (``repro.store``), queryable via ``repro.cli db``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import TrainConfig
from repro.data import StockDataset, load_market
from repro.store import ExperimentStore, bench_envelope, sanitize_payload
from repro.store import speed_record  # noqa: F401 — benches import it here

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: set to a sqlite path to also record bench artifacts in the experiment
#: store
BENCH_STORE = os.environ.get("RTGCN_BENCH_STORE", "")

BENCH_EPOCHS = int(os.environ.get("RTGCN_BENCH_EPOCHS", "12"))
BENCH_RUNS = int(os.environ.get("RTGCN_BENCH_RUNS", "3"))
BENCH_MARKETS = os.environ.get(
    "RTGCN_BENCH_MARKETS", "nasdaq-mini,nyse-mini,csi-mini").split(",")
BENCH_WINDOW = int(os.environ.get("RTGCN_BENCH_WINDOW", "10"))
BENCH_SEED = int(os.environ.get("RTGCN_BENCH_SEED", "0"))
#: early stopping (0 = disabled, the default): the mini presets'
#: validation tail lies in the pre-crash regime while the test period is
#: crash+recovery, so validation-based selection adds regime-mismatch noise
BENCH_PATIENCE = int(os.environ.get("RTGCN_BENCH_PATIENCE", "0"))
BENCH_VALIDATION_DAYS = int(os.environ.get("RTGCN_BENCH_VALIDATION_DAYS",
                                           "30"))
BENCH_WORKERS = int(os.environ.get("RTGCN_BENCH_WORKERS", "1"))

# Keyed by (market, seed): a bench that loads the same market under a
# different seed (e.g. a sensitivity sweep overriding BENCH_SEED) must not
# be served the cached dataset generated under the session seed.
_dataset_cache: Dict[tuple, StockDataset] = {}


def bench_dataset(market: str, seed: Optional[int] = None) -> StockDataset:
    """Load (and cache) a market preset for the bench session."""
    key = (market, BENCH_SEED if seed is None else seed)
    if key not in _dataset_cache:
        _dataset_cache[key] = load_market(market, seed=key[1])
    return _dataset_cache[key]


def bench_config(**overrides) -> TrainConfig:
    """The shared §V-B-4 training configuration at bench scale."""
    defaults = dict(window=BENCH_WINDOW, num_features=4, alpha=0.1,
                    epochs=BENCH_EPOCHS, seed=BENCH_SEED,
                    early_stopping_patience=BENCH_PATIENCE or None,
                    validation_days=BENCH_VALIDATION_DAYS)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence], note: Optional[str] = None
                 ) -> str:
    """Render an aligned text table in the paper's layout."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [max(len(str(h)), *(len(r[i]) for r in rendered_rows))
              if rendered_rows else len(str(h))
              for i, h in enumerate(headers)]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if np.isnan(value):
            return "-"
        if value != 0.0 and abs(value) < 0.005:
            return f"{value:.0e}"
        return f"{value:+.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def publish(name: str, text: str) -> Path:
    """Print a bench artifact and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print("\n" + text + "\n")
    return path


def bench_settings() -> dict:
    """The env-derived bench-scale knobs stamped into every artifact."""
    return {"epochs": BENCH_EPOCHS, "runs": BENCH_RUNS,
            "window": BENCH_WINDOW, "seed": BENCH_SEED}


def publish_result(name: str, payload: dict) -> Path:
    """Persist machine-readable telemetry as ``results/<name>.json``.

    Wraps ``payload`` in the :mod:`repro.obs` schema envelope
    (``schema_version``, ``benchmark``, ``created_at``, bench-scale
    settings) so later runs can regress against these artifacts without
    parsing the text tables.  Non-finite floats are written as ``null``
    — never a bare (non-JSON) ``NaN`` token.  With ``RTGCN_BENCH_STORE``
    set, the same envelope also replaces the store's ``bench:<name>``
    telemetry row, exactly as rewriting the file replaces it.
    """
    envelope = sanitize_payload(
        bench_envelope(name, payload, settings=bench_settings()))
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")
    if BENCH_STORE:
        with ExperimentStore(BENCH_STORE) as store:
            store.record_report(envelope, kind="benchmark",
                                report_id=f"bench:{name}")
    return path


def checkpoint_telemetry(trainer, directory: Optional[Path] = None) -> dict:
    """Checkpoint-cost fields for the benchmark JSON artifacts.

    Writes one full :class:`~repro.ckpt.TrainingCheckpoint` of
    ``trainer`` (model + optimizer + RNG state) through a
    :class:`~repro.ckpt.CheckpointManager` and reports its size and
    write latency, so artifact diffs catch a checkpoint-format size
    regression the same way they catch a speed regression.
    """
    import shutil
    import tempfile

    from repro.ckpt import CheckpointManager

    target = directory if directory is not None else Path(
        tempfile.mkdtemp(prefix="bench-ckpt-"))
    try:
        manager = CheckpointManager(target)
        manager.save(trainer.state_dict())
        return manager.telemetry()
    finally:
        if directory is None:
            shutil.rmtree(target, ignore_errors=True)


def metric_row(name: str, summary: dict,
               keys: Sequence[str] = ("MRR", "IRR-1", "IRR-5", "IRR-10")
               ) -> List:
    """One Table-IV-style row from a metric-summary dict."""
    return [name] + [summary[k].mean if k in summary else None for k in keys]
