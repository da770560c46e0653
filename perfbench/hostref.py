"""Host-speed reference: a fixed NumPy + Python kernel that never imports repro.

Back-to-back processes on a small shared host run at speeds that differ by
about +-20%, while the ratio of the program's work to this kernel holds
within a few percent.  Every timing the benchmark reports is therefore
expressed in reference-host units::

    normalised = wall * NOMINAL_S / measured

where ``measured`` is the median duration of :func:`kernel` sampled
interleaved with the timed work of the same run.  The kernel mixes the
three kinds of cost a training step has: small GEMMs, elementwise ufuncs
over a (T, N, F)-shaped array, and interpreter-bound dict/loop work.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: median duration of one :func:`kernel` call on the reference host
#: (2-core x86-64 container, OpenBLAS pinned to one thread)
NOMINAL_S = 0.0030

_rng = np.random.default_rng(20230401)
_A = _rng.standard_normal((48, 32))
_B = _rng.standard_normal((32, 32))
_V = _rng.standard_normal((20, 48, 32))


def kernel() -> float:
    """One fixed unit of host work; returns a value so nothing is elided."""
    acc = 0.0
    for _ in range(80):
        acc += float(np.tanh(_A @ _B).sum())
    x = _V
    for _ in range(16):
        x = np.maximum(x * 0.5 + 0.1, 0.0)
    table = {}
    for i in range(6000):
        key = i & 63
        table[key] = table.get(key, 0) + i
    return acc + float(x.sum()) + table[1]


class HostReference:
    """Collects reference-kernel durations for one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, repeats: int = 1) -> float:
        """Run the kernel ``repeats`` times; returns their median seconds."""
        taken = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            taken.append(time.perf_counter() - start)
        self.samples.extend(taken)
        return statistics.median(taken)

    def mark(self) -> int:
        """Start a phase: :meth:`factor` can then use its samples only."""
        return len(self.samples)

    def median(self, since: int = 0) -> float:
        return statistics.median(self.samples[since:])

    def factor(self, since: int = 0) -> float:
        """Multiply a wall time by this to get reference-host units;
        ``since`` (from :meth:`mark`) limits it to one phase's samples."""
        return NOMINAL_S / self.median(since)


def probe(interval_s: float) -> None:
    """Sample the kernel's CPU time every ``interval_s`` until stdin closes.

    Run as a separate process beside a server under load (``python3
    hostref.py 0.1``): CPU time leaves out the time the probe waits for a
    core, so its readings follow the host's speed, not the load's.  One
    line per reading: the perf_counter time it started (that clock is
    shared by every process on the host) and its CPU seconds.
    """
    import select
    import sys

    while not select.select([sys.stdin], [], [], interval_s)[0]:
        wall = time.perf_counter()
        start = time.thread_time()
        kernel()
        print(f"{wall:.6f} {time.thread_time() - start:.9f}", flush=True)


if __name__ == "__main__":
    import sys

    probe(float(sys.argv[1]))
