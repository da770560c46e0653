"""Pinned numbers of RT-GCN (T) at the paper's shape (NASDAQ-854, T = 20).

Every other bitwise pin runs nasdaq-mini, which resolves to dense mode.
At NASDAQ-854 the model runs the sparse Eq. 4/5 chain, the sparse Eq. 2
propagation and the Eq. 6 block on 854 stocks, so this file pins that
path: one float64 training step (the loss ``repr`` and a CRC32 of every
parameter gradient) and one ``no_grad`` eval forward over three fixed
test days (a CRC32 of the scores).

A change that moves these numbers updates them in the same commit and
names the move, with the largest relative difference from the old
values.  The run is a fresh interpreter with BLAS pinned to one thread:
a threaded GEMM over the 17,080-row conv operands rounds the weight-norm
gradients differently.  The bits still depend on the BLAS kernel
OpenBLAS picks for the CPU, so a host of another CPU family may need the
values recorded again.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

STEP_LOSS = "0.2567889741114496"
GRAD_CRCS = {
    "layer0.relational.strategy.weight": 2185234484,
    "layer0.relational.strategy.bias": 4135830475,
    "layer0.relational.conv.weight": 4233202796,
    "layer0.relational.conv.bias": 1426361568,
    "layer0.relational.skip.weight": 3262142103,
    "layer0.temporal.block.conv1.bias": 2317327885,
    "layer0.temporal.block.conv1.weight_g": 1207742280,
    "layer0.temporal.block.conv1.weight_v": 1419441100,
    "layer0.temporal.block.conv2.bias": 2031705407,
    "layer0.temporal.block.conv2.weight_g": 2681175701,
    "layer0.temporal.block.conv2.weight_v": 4134307752,
    "scorer.weight": 3403193323,
    "scorer.bias": 3483785870,
}
TEST_DAYS = [1334, 1335, 1336]
SCORES_CRC = 3041259030

RUN = """
    import json, zlib
    import numpy as np
    from repro.core import RTGCN, TrainConfig, combined_loss
    from repro.data import load_market
    from repro.tensor import Tensor, no_grad

    def crc(array):
        return zlib.crc32(np.ascontiguousarray(array).tobytes())

    dataset = load_market("nasdaq")
    model = RTGCN(dataset.relations, strategy="time", graph_mode="sparse",
                  rng=np.random.default_rng(1))
    mode = model.layer0.relational.strategy.resolved_mode()
    config = TrainConfig(window=20)
    train_days, test_days = dataset.split(20)
    day = train_days[0]
    loss = combined_loss(model(Tensor(dataset.features(day, 20))),
                         Tensor(dataset.label(day)), config.alpha,
                         parameters=list(model.parameters()),
                         weight_decay=config.weight_decay)
    loss.backward()
    grads = {name: crc(p.grad) for name, p in model.named_parameters()}
    model.eval()
    days = [int(d) for d in test_days[:3]]
    with no_grad():
        scores = np.stack([model(Tensor(dataset.features(d, 20))).data
                           for d in days])
    print(json.dumps({"mode": mode, "loss": repr(loss.item()),
                      "grads": grads, "days": days,
                      "shape": list(scores.shape), "scores": crc(scores)}))
"""


def _run_pinned() -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(RUN)],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_nasdaq_854_sparse_step_and_eval_pinned():
    out = _run_pinned()
    assert out["mode"] == "sparse"
    assert out["loss"] == STEP_LOSS
    assert out["grads"] == GRAD_CRCS
    assert out["days"] == TEST_DAYS and out["shape"] == [3, 854]
    assert out["scores"] == SCORES_CRC
