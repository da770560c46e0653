"""Shared fixtures for the serving tests: one trained checkpoint dir.

Training even a tiny RT-GCN dominates test wall-clock, so one session-
scoped directory with a briefly-trained, metadata-stamped checkpoint is
shared by the registry/engine/service/httpd tests (all of which only
read it).
"""

import numpy as np
import pytest

from repro.ckpt import TrainingCheckpoint, save
from repro.core import RTGCN, TrainConfig, Trainer


@pytest.fixture(scope="session")
def serving_ckpt_dir(tmp_path_factory, csi_mini):
    directory = tmp_path_factory.mktemp("serving-ckpts")
    config = TrainConfig(window=6, epochs=1, max_train_days=10, seed=3)
    model = RTGCN(csi_mini.relations, num_features=config.num_features,
                  strategy="time", relational_filters=4,
                  rng=np.random.default_rng(42))
    trainer = Trainer(model, csi_mini, config)
    trainer.run()
    checkpoint = trainer.state_dict()
    checkpoint.metadata = {"model": "RT-GCN (T)", "market": "csi-mini"}
    save(checkpoint, directory / "best.npz")

    # A second, untrained version so multi-version tests have something
    # distinct to load (different scores, same architecture).
    fresh = RTGCN(csi_mini.relations, num_features=config.num_features,
                  strategy="time", relational_filters=4,
                  rng=np.random.default_rng(7))
    save(TrainingCheckpoint(
        model_state=fresh.state_dict(),
        cursor={"epoch": 0, "batch_index": 0},
        config={"window": 6, "num_features": 4, "seed": 3},
        model_class="RTGCN",
        metadata={"model": "RT-GCN (T)", "market": "csi-mini"}),
        directory / "ckpt-e0000-b000000.npz")
    return directory

