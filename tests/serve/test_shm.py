"""Generation-tagged shared-memory weights: publish/attach/adopt/retire."""

import gc
import sys
from functools import partial

import numpy as np
import pytest

from repro.serve.cluster import _sync_weights, _worker_execute
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry
from repro.serve.shm import (SharedWeightReader, SharedWeightStore,
                             adopt_views, attach_state, publish_state,
                             shm_available)

pytestmark = pytest.mark.skipif(not shm_available(),
                                reason="multiprocessing.shared_memory "
                                       "unavailable")


def _state(seed):
    rng = np.random.default_rng(seed)
    return {"w": rng.standard_normal((4, 3)),
            "b": rng.standard_normal(3),
            "scalar": np.float64(seed)}


@pytest.fixture
def base_name():
    import os
    return f"repro-test-shm-{os.getpid()}"


class TestPublishAttach:
    def test_round_trip_is_bitwise(self, base_name):
        state = _state(1)
        published = publish_state(state, f"{base_name}-rt",
                                  generation=0, version="best")
        attached = attach_state(f"{base_name}-rt")
        try:
            for key, value in state.items():
                view = attached.views()[key]
                expected = np.asarray(value)
                assert view.shape == expected.shape    # 0-d stays 0-d
                assert np.array_equal(view, expected)
            assert attached.version == "best"
            assert attached.generation == 0
        finally:
            del view                     # drop buffer export before close
            attached.close()
            published.unlink()
            published.close()

    def test_views_are_read_only(self, base_name):
        published = publish_state(_state(2), f"{base_name}-ro",
                                  generation=0)
        try:
            view = published.views()["w"]
            with pytest.raises((ValueError, TypeError)):
                view[0, 0] = 99.0
            del view                     # drop buffer export before close
        finally:
            published.unlink()
            published.close()


class TestStoreReader:
    def test_generations_advance_and_retire(self, base_name):
        store = SharedWeightStore(base_name=f"{base_name}-gen", keep=2)
        try:
            store.publish(_state(1), version="v1")
            assert store.current_generation() == 0
            store.publish(_state(2), version="v2")
            store.publish(_state(3), version="v3")
            assert store.current_generation() == 2
            # generation 0 is retired (> keep behind head)
            with pytest.raises(FileNotFoundError):
                attach_state(store.segment_name(0))
        finally:
            store.close(unlink=True)

    def test_reader_tracks_swaps(self, base_name):
        store = SharedWeightStore(base_name=f"{base_name}-rd", keep=2)
        reader = SharedWeightReader(f"{base_name}-rd")
        try:
            store.publish(_state(1), version="v1")
            assert reader.refresh() is True
            assert reader.generation == 0
            assert reader.version == "v1"
            assert reader.refresh() is False       # nothing changed
            old_view = reader.views()["w"]
            store.publish(_state(2), version="v2")
            assert reader.refresh() is True
            assert reader.generation == 1
            # the pre-swap views stay readable (kept one swap behind)
            assert float(old_view[0, 0]) == old_view[0, 0]
            assert not np.array_equal(reader.views()["w"], old_view)
            del old_view                 # drop buffer export before close
        finally:
            reader.close()
            store.close(unlink=True)


class TestWorkerWeightSync:
    """A cluster worker's refresh → adopt → forget step, in-process."""

    def test_refused_generation_keeps_the_held_one(self, base_name,
                                                   serving_ckpt_dir,
                                                   monkeypatch):
        gc.collect()                     # earlier tests' garbage
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        servable = ModelRegistry(serving_ckpt_dir).load("best")
        model = servable.model
        state = {name: np.array(value)
                 for name, value in model.state_dict().items()}
        bad = dict(state)
        name = next(iter(bad))
        bad[name] = np.zeros(bad[name].size + 1)       # wrong shape
        doubled = {name: value * 2.0 for name, value in state.items()}

        store = SharedWeightStore(base_name=f"{base_name}-sync", keep=2)
        reader = SharedWeightReader(f"{base_name}-sync")
        query = {"day": "100"}
        try:
            store.publish(state, version="g0")
            reader.refresh(partial(adopt_views, model))
            engine = InferenceEngine(servable)
            first = _worker_execute(engine, reader, 0, "scores", query)

            store.publish(bad, version="g1")
            assert _sync_weights(reader, engine) is False
            refused = _worker_execute(engine, reader, 0, "scores", query)
            assert _sync_weights(reader, engine) is False   # not retried

            store.publish(doubled, version="g2")
            assert _sync_weights(reader, engine) is True
            adopted = _worker_execute(engine, reader, 0, "scores", query)

            assert [first["generation"], refused["generation"],
                    adopted["generation"]] == [0, 0, 2]
            assert refused["scores"] == first["scores"]
            assert adopted["scores"] != first["scores"]     # memo dropped
            assert engine.stats()["forwards"] == 2
        finally:
            for param in model.parameters():
                param.data = np.array(param.data)
            reader.close()
            store.close(unlink=True)
            gc.collect()
        # the model aliasing a closed generation: "cannot close exported
        # pointers exist" when the mapping is torn down
        assert not [hook.exc_value for hook in unraisable
                    if isinstance(hook.exc_value, BufferError)]


class TestAdoptViews:
    class _Model:
        def __init__(self, params):
            self._params = params

        def named_parameters(self):
            return dict(self._params)

    class _Param:
        def __init__(self, data):
            self.data = data
            self.grad = None

    def _model(self):
        return self._Model({"w": self._Param(np.zeros((4, 3))),
                            "b": self._Param(np.zeros(3))})

    def test_adopts_without_copy(self):
        model = self._model()
        views = {"w": np.ones((4, 3)), "b": np.ones(3),
                 "extra": np.ones(1)}
        adopt_views(model, views)
        assert model.named_parameters()["w"].data is views["w"]

    def test_missing_parameter_raises(self):
        with pytest.raises(KeyError, match="lacks"):
            adopt_views(self._model(), {"w": np.ones((4, 3))})

    def test_shape_mismatch_leaves_model_untouched(self):
        model = self._model()
        before = model.named_parameters()["w"].data
        # 'w' matches but 'b' does not: nothing must be assigned
        with pytest.raises(ValueError, match="shape mismatch"):
            adopt_views(model, {"w": np.ones((4, 3)), "b": np.ones(7)})
        assert model.named_parameters()["w"].data is before
