"""Hot model reload: promote a new best mid-load, drop zero requests.

The acceptance bar from PR 8: while a closed-loop client hammers the
cluster, overwriting ``best.npz`` must (a) be picked up by the watcher
without restarting anything, (b) never fail an in-flight request, and
(c) leave the served scores bitwise-identical to a fresh
``InferenceEngine`` on the new checkpoint.
"""

import json
import multiprocessing
import shutil
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.ckpt import TrainingCheckpoint, save
from repro.core import RTGCN
from repro.serve import ServeConfig, build
from repro.serve.engine import InferenceEngine
from repro.serve.registry import build_servable
from repro.serve.shm import shm_available

pytestmark = pytest.mark.skipif(
    not (shm_available()
         and "fork" in multiprocessing.get_all_start_methods()),
    reason="cluster mode needs fork + shared_memory")


@pytest.fixture
def swap_ckpt_dir(serving_ckpt_dir, tmp_path):
    """A private copy of the trained checkpoint (the test overwrites it)."""
    directory = tmp_path / "ckpts"
    directory.mkdir()
    shutil.copy(serving_ckpt_dir / "best.npz", directory / "best.npz")
    return directory


def _new_best(csi_mini, path, seed):
    fresh = RTGCN(csi_mini.relations, num_features=4, strategy="time",
                  relational_filters=4, rng=np.random.default_rng(seed))
    save(TrainingCheckpoint(
        model_state=fresh.state_dict(),
        cursor={"epoch": 0, "batch_index": 0},
        config={"window": 6, "num_features": 4, "seed": 3},
        model_class="RTGCN",
        metadata={"model": "RT-GCN (T)", "market": "csi-mini"}), path)


def test_hot_swap_drops_nothing_and_scores_bitwise(swap_ckpt_dir,
                                                   csi_mini):
    handle = build(ServeConfig(checkpoint_dir=str(swap_ckpt_dir), port=0,
                               mode="cluster", cluster_workers=2,
                               watch_interval_s=0.2,
                               default_timeout=60.0))
    handle.start()
    host, port = handle.address
    base = f"http://{host}:{port}"

    def get_scores():
        with urllib.request.urlopen(base + "/v1/scores",
                                    timeout=60) as resp:
            return json.load(resp)

    results = []          # (generation, scores) per completed request
    failures = []
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            try:
                body = get_scores()
                results.append((body["generation"], body["scores"]))
            except Exception as exc:      # noqa: BLE001 - drop counter
                failures.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    try:
        first = get_scores()
        assert first["generation"] == 0
        for thread in threads:
            thread.start()
        time.sleep(0.5)                   # load running against gen 0

        # promote a new best mid-load
        _new_best(csi_mini, swap_ckpt_dir / "best.npz", seed=99)
        deadline = time.monotonic() + 30
        swapped = None
        while time.monotonic() < deadline:
            body = get_scores()
            if body["generation"] > 0:
                swapped = body
                break
            time.sleep(0.1)
        assert swapped is not None, "watcher never promoted the new best"
        time.sleep(0.5)                   # load running against gen 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        handle.close()

    # (b) zero dropped in-flight requests across the swap
    assert not failures, failures[:3]
    generations = {generation for generation, _ in results}
    assert generations == {0, 1}, generations

    # (c) post-swap scores bitwise-equal to a fresh engine on the new file
    servable = build_servable(swap_ckpt_dir / "best.npz", "best")
    engine = InferenceEngine(servable)
    expected = engine.scores(None)
    symbols = engine.dataset.universe.symbols
    for generation, scores in results:
        if generation == 1:
            got = np.array([scores[s] for s in symbols])
            assert np.array_equal(got, expected)
    assert swapped["scores"] != first["scores"]
