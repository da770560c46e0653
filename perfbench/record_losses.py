#!/usr/bin/env python3
"""Re-record ``reference_losses.json``: the final float64 epoch loss of
each train workload for every seed class.

    python3 perfbench/record_losses.py

Run it only when a change is meant to alter the training trajectory (a
new dtype policy, a different reduction order) and say so in the change;
otherwise the benchmark's bitwise loss check is what catches such drift.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from run import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import train  # noqa: E402


def main() -> int:
    table = {}
    for workload in train.MODELS:
        table[workload] = {}
        for seed in range(train.SEED_CLASSES):
            losses = train.build(workload, seed).fit()
            table[workload][str(seed)] = repr(float(losses[-1]))
            print(workload, seed, table[workload][str(seed)], flush=True)
    train.REFERENCE_FILE.write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
