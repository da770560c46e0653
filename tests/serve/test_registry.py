"""ModelRegistry: discovery, verification, reconstruction, LRU budget."""

import numpy as np
import pytest

from repro.ckpt import TrainingCheckpoint, corrupt_archive, save
from repro.core import RTGCN
from repro.serve import (RegistryError, infer_rtgcn_architecture,
                         resolve_strategy)
from repro.serve.registry import ModelRegistry


class TestDiscovery:
    def test_discover_lists_versions(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        assert registry.discover() == ["best", "ckpt-e0000-b000000"]

    def test_empty_directory(self, tmp_path):
        assert ModelRegistry(tmp_path / "nope").discover() == []

    def test_default_version_prefers_best(self, serving_ckpt_dir):
        assert ModelRegistry(serving_ckpt_dir).default_version() == "best"

    def test_default_version_newest_periodic_without_best(self, tmp_path,
                                                          csi_mini):
        model = RTGCN(csi_mini.relations, strategy="uniform",
                      relational_filters=4, rng=np.random.default_rng(0))
        for name in ["ckpt-e0000-b000005.npz", "ckpt-e0002-b000001.npz"]:
            save(TrainingCheckpoint(
                model_state=model.state_dict(),
                cursor={"epoch": 0, "batch_index": 0},
                metadata={"market": "csi-mini"}), tmp_path / name)
        assert (ModelRegistry(tmp_path).default_version()
                == "ckpt-e0002-b000001")

    def test_unknown_version_lists_available(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        with pytest.raises(RegistryError, match="available"):
            registry.path_of("nope")

    def test_describe_verifies_checksum(self, serving_ckpt_dir, tmp_path):
        registry = ModelRegistry(serving_ckpt_dir)
        meta = registry.describe("best")
        assert meta["version"] == "best"
        assert meta["user"]["model"] == "RT-GCN (T)"
        assert meta["bytes"] > 0

    def test_describe_rejects_corrupt(self, serving_ckpt_dir, tmp_path):
        import shutil
        bad_dir = tmp_path / "bad"
        shutil.copytree(serving_ckpt_dir, bad_dir)
        corrupt_archive(bad_dir / "best.npz", mode="flip")
        with pytest.raises(RegistryError, match="verification"):
            ModelRegistry(bad_dir).describe("best")


class TestReconstruction:
    def test_load_reconstructs_trained_model(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        servable = registry.load("best")
        assert servable.model_name == "RT-GCN (T)"
        assert servable.strategy == "time"
        assert servable.dataset.market == "CSI-mini"
        assert servable.nbytes > 0
        # reconstructed weights match the archive bitwise
        from repro.ckpt import load as load_archive
        state = load_archive(servable.path).model_state
        for key, value in servable.model.state_dict().items():
            assert np.array_equal(value, state[key]), key

    def test_architecture_inferred_from_shapes(self, csi_mini):
        model = RTGCN(csi_mini.relations, strategy="time", num_layers=2,
                      relational_filters=8, temporal_kernel=5,
                      rng=np.random.default_rng(0))
        arch = infer_rtgcn_architecture(model.state_dict())
        assert arch["num_layers"] == 2
        assert arch["relational_filters"] == 8
        assert arch["temporal_kernel"] == 5
        assert arch["use_relational"] and arch["use_temporal"]
        assert arch["num_features"] == 4

    def test_non_rtgcn_state_rejected(self):
        with pytest.raises(RegistryError, match="RTGCN"):
            infer_rtgcn_architecture({"fc.weight": np.ones((4, 4))})

    def test_strategy_from_metadata(self, csi_mini):
        model = RTGCN(csi_mini.relations, strategy="weight",
                      rng=np.random.default_rng(0))
        ckpt = TrainingCheckpoint(model_state=model.state_dict(),
                                  cursor={"epoch": 0, "batch_index": 0},
                                  metadata={"model": "RT-GCN (W)"})
        assert resolve_strategy(ckpt) == ("RT-GCN (W)", "weight")

    def test_uniform_inferable_without_metadata(self, csi_mini):
        # No strategy parameters in the state dict pins it to uniform.
        model = RTGCN(csi_mini.relations, strategy="uniform",
                      rng=np.random.default_rng(0))
        ckpt = TrainingCheckpoint(model_state=model.state_dict(),
                                  cursor={"epoch": 0, "batch_index": 0})
        assert resolve_strategy(ckpt) == ("RT-GCN (U)", "uniform")

    def test_ambiguous_strategy_requires_name(self, csi_mini):
        # weight- and time-strategy parameters are shape-identical, so an
        # unnamed non-uniform checkpoint must refuse to guess.
        model = RTGCN(csi_mini.relations, strategy="time",
                      rng=np.random.default_rng(0))
        ckpt = TrainingCheckpoint(model_state=model.state_dict(),
                                  cursor={"epoch": 0, "batch_index": 0})
        with pytest.raises(RegistryError, match="explicitly"):
            resolve_strategy(ckpt)
        assert resolve_strategy(ckpt, "RT-GCN (T)") == ("RT-GCN (T)",
                                                        "time")

    def test_unknown_model_name_rejected(self, csi_mini):
        model = RTGCN(csi_mini.relations, strategy="time",
                      rng=np.random.default_rng(0))
        ckpt = TrainingCheckpoint(model_state=model.state_dict(),
                                  cursor={"epoch": 0, "batch_index": 0},
                                  metadata={"model": "LSTM"})
        with pytest.raises(RegistryError, match="servable"):
            resolve_strategy(ckpt)

    def test_missing_market_needs_override(self, tmp_path, csi_mini):
        model = RTGCN(csi_mini.relations, strategy="uniform",
                      rng=np.random.default_rng(0))
        save(TrainingCheckpoint(model_state=model.state_dict(),
                                cursor={"epoch": 0, "batch_index": 0}),
             tmp_path / "bare.npz")
        with pytest.raises(RegistryError, match="market"):
            ModelRegistry(tmp_path).load("bare")
        servable = ModelRegistry(tmp_path,
                                 market="csi-mini").load("bare")
        assert servable.dataset.market == "CSI-mini"


class TestLRUBudget:
    def test_cache_hit_skips_reload(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        first = registry.load("best")
        assert registry.load("best") is first
        assert registry.hits == 1 and registry.loads == 1

    def test_budget_evicts_least_recently_used(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        per_model = registry.load("best").nbytes
        registry.evict("best")
        # room for exactly one model: loading the second evicts the first
        registry.memory_budget_bytes = int(per_model * 1.5)
        registry.load("best")
        registry.load("ckpt-e0000-b000000")
        assert registry.loaded_versions() == ["ckpt-e0000-b000000"]
        assert registry.evictions >= 1

    def test_newest_load_kept_even_over_budget(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir,
                                 memory_budget_bytes=1)
        servable = registry.load("best")
        assert registry.loaded_versions() == ["best"]
        assert servable.nbytes > 1

    def test_warm_and_evict(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        registry.load("best")
        assert registry.loaded_versions() == ["best"]
        assert registry.evict("best") is True
        assert registry.evict("best") is False
        assert registry.loaded_versions() == []

    def test_stats_shape(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        registry.load("best")
        stats = registry.stats()
        assert stats["loaded"] == ["best"]
        assert stats["resident_bytes"] > 0
        assert set(stats) >= {"available", "loads", "hits", "evictions"}

    def test_versions_share_dataset_object(self, serving_ckpt_dir):
        registry = ModelRegistry(serving_ckpt_dir)
        a = registry.load("best")
        b = registry.load("ckpt-e0000-b000000")
        assert a.dataset is b.dataset
