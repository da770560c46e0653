"""Heap retention: the training loop keeps its freed pages.

Without :func:`retain_heap` glibc trims the ~1 MB of NumPy temporaries a
Fig. 5 RT-GCN (T) step frees back to the kernel, and the next step faults
every page in again (~2,000 minor faults per step).  The budget test
pins the steady state at the Fig. 5 shape.
"""

import ctypes
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.core.trainer as trainer_module
from repro.core import RTGCN, TrainConfig, Trainer
from repro.tensor import arena_stats, retain_heap

# the package re-exports the ``arena`` context manager under the module name
arena_module = importlib.import_module("repro.tensor.arena")

#: steady-state minor faults allowed per optimizer step; a retained heap
#: measures well under 1, glibc's default thresholds ~2,000
FAULTS_PER_STEP = 50


#: Fig. 5 shape (nasdaq-mini, RT-GCN (T), T=20), 20 days: one warm-up fit,
#: then the minor faults of a second fit per step.  retain_heap() is asked
#: only afterwards, to learn whether the platform supports it at all.
_FAULT_PROBE = """
import json, resource
import numpy as np
from repro.core import RTGCN, TrainConfig, Trainer
from repro.data import load_market
from repro.tensor import retain_heap

def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

dataset = load_market("nasdaq-mini", seed=7)
model = RTGCN(dataset.relations, strategy="time",
              rng=np.random.default_rng(0))
trainer = Trainer(model, dataset,
                  TrainConfig(window=20, epochs=1, max_train_days=20))
trainer.fit()
before = minflt()
trainer.fit()
per_step = (minflt() - before) / 20
print(json.dumps([retain_heap(), per_step]))
"""


def _cdll_raises(*args, **kwargs):
    raise OSError("no C library")


def _cdll_without_mallopt(*args, **kwargs):
    return object()


def _small_trainer(dataset, **overrides) -> Trainer:
    cfg = TrainConfig(window=6, epochs=1, max_train_days=4, **overrides)
    model = RTGCN(dataset.relations, strategy="uniform",
                  relational_filters=4, dropout=0.0,
                  rng=np.random.default_rng(3))
    return Trainer(model, dataset, cfg)


class TestRetainHeap:
    def test_idempotent(self, monkeypatch):
        first = retain_heap()
        calls = []

        def counting_cdll(*args, **kwargs):
            calls.append(args)
            return _cdll_raises()

        monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
        assert retain_heap() is first
        assert retain_heap() is first
        assert calls == []
        assert arena_stats()["heap_retained"] is first

    @pytest.mark.parametrize("cdll", [_cdll_raises,
                                      _cdll_without_mallopt])
    def test_without_glibc_is_a_quiet_no_op(self, monkeypatch, csi_mini,
                                            cdll):
        monkeypatch.setattr(arena_module, "_heap_retained", None)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert retain_heap() is False
        assert arena_stats()["heap_retained"] is False
        losses = _small_trainer(csi_mini).fit()
        assert len(losses) == 1 and np.isfinite(losses[0])

    def test_fit_retains_the_heap(self, monkeypatch, csi_mini):
        calls = []
        monkeypatch.setattr(trainer_module, "retain_heap",
                            lambda: calls.append("retain") or True)
        _small_trainer(csi_mini).fit()
        assert calls == ["retain"]


class TestFaultBudget:
    def test_fig5_step_stays_under_fault_budget(self):
        # A fresh interpreter: the budget must come from Trainer.fit itself,
        # not from a retain_heap() call or heap growth earlier in the suite.
        out = subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE], check=True,
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        supported, per_step = json.loads(out.stdout.splitlines()[-1])
        if not supported:
            pytest.skip("allocator thresholds not settable (no glibc)")
        assert per_step <= FAULTS_PER_STEP, (
            f"{per_step:.1f} minor faults per step (budget "
            f"{FAULTS_PER_STEP}): freed temporaries go back to the kernel")
