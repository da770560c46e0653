"""Thread-safety of the normalized-adjacency cache.

The serving front-end reads this cache from its executor threads (ingest
and hot swap) while training code may invalidate it; the stress tests pin
down that concurrent readers and an invalidating writer never corrupt the
cache, lose counter updates, or serve another key's value.
"""

import threading

import numpy as np
import pytest

from repro.graph import NormalizedAdjacencyCache, reset_adjacency_cache


@pytest.fixture(autouse=True)
def fresh_global_cache():
    yield reset_adjacency_cache()
    reset_adjacency_cache()


def run_threads(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "worker deadlocked"


class TestConcurrentReaders:
    def test_hammered_get_or_compute_returns_right_values(self):
        # 8 readers × 200 lookups over 10 keys: every result must match
        # its key (never another thread's value), and errors surface.
        cache = NormalizedAdjacencyCache(max_entries=32)
        barrier = threading.Barrier(8)
        errors = []

        def reader(worker_id):
            def body():
                barrier.wait(timeout=10.0)
                rng = np.random.default_rng(worker_id)
                for _ in range(200):
                    key = int(rng.integers(0, 10))
                    value = cache.get_or_compute(
                        key, lambda k=key: np.full(4, float(k)))
                    if not np.array_equal(value, np.full(4, float(key))):
                        errors.append((worker_id, key, value))
            return body

        run_threads([reader(i) for i in range(8)])
        assert errors == []
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200

    def test_counters_do_not_lose_updates(self):
        # Pure hit traffic: with the entry pre-seeded, 8 × 500 lookups
        # must count exactly 4000 hits (a torn counter would undercount).
        cache = NormalizedAdjacencyCache()
        cache.put("adj", np.eye(3))
        barrier = threading.Barrier(8)

        def reader():
            barrier.wait(timeout=10.0)
            for _ in range(500):
                cache.get("adj")

        run_threads([reader] * 8)
        assert cache.stats()["hits"] == 8 * 500


class TestInvalidationRace:
    def test_readers_race_invalidator(self):
        # Readers recompute-or-hit one key while a writer invalidates it
        # as fast as it can.  Whatever interleaving happens, a reader
        # must only ever observe the correct value for the key.
        cache = NormalizedAdjacencyCache(max_entries=8)
        barrier = threading.Barrier(5)
        stop = threading.Event()
        wrong = []

        def reader(worker_id):
            def body():
                barrier.wait(timeout=10.0)
                for _ in range(300):
                    value = cache.get_or_compute(
                        "contested", lambda: np.full(8, 7.0))
                    if not np.array_equal(value, np.full(8, 7.0)):
                        wrong.append((worker_id, value))
            return body

        def invalidator():
            barrier.wait(timeout=10.0)
            # Keep going until at least one invalidation landed: a starved
            # thread can otherwise see `stop` already set on its first
            # check and exit without exercising the race at all.  The key
            # is guaranteed present once the readers finish, so this
            # always terminates.
            while (not stop.is_set()
                   or cache.stats()["invalidations"] == 0):
                cache.invalidate("contested")

        readers = [reader(i) for i in range(4)]
        threads = [threading.Thread(target=fn) for fn in readers]
        inval = threading.Thread(target=invalidator)
        for thread in threads + [inval]:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        inval.join(timeout=10.0)
        assert not inval.is_alive()
        assert wrong == []
        stats = cache.stats()
        assert stats["invalidations"] >= 1
        # conservation: every lookup was either a hit or a miss
        assert stats["hits"] + stats["misses"] == 4 * 300

    def test_delta_races_invalidate_keeps_counters_coherent(self):
        # Streaming ingest (apply_delta) races an invalidator and a
        # re-seeder on the same key.  Every apply_delta call must count
        # exactly one hit+delta (success) or one miss (KeyError after an
        # invalidation won) — conservation across any interleaving.
        from repro.graph import DynamicNormalizedAdjacency

        cache = NormalizedAdjacencyCache(max_entries=8)

        def seed():
            return DynamicNormalizedAdjacency(np.zeros((6, 6)), mode="csr")

        cache.put("stream", seed())
        barrier = threading.Barrier(5)
        outcomes = {"applied": 0, "missed": 0}
        tally = threading.Lock()

        def ingester(worker_id):
            def body():
                barrier.wait(timeout=10.0)
                rng = np.random.default_rng(worker_id)
                for _ in range(150):
                    i = int(rng.integers(0, 6))
                    j = (i + 1 + int(rng.integers(0, 5))) % 6
                    try:
                        cache.apply_delta(
                            "stream", [(i, j, float(rng.random()) + 0.1)])
                        with tally:
                            outcomes["applied"] += 1
                    except KeyError:
                        with tally:
                            outcomes["missed"] += 1
            return body

        def churner():
            barrier.wait(timeout=10.0)
            for _ in range(100):
                cache.invalidate("stream")
                cache.put("stream", seed())

        run_threads([ingester(i) for i in range(4)] + [churner])
        stats = cache.stats()
        assert outcomes["applied"] + outcomes["missed"] == 4 * 150
        assert stats["deltas"] == outcomes["applied"]
        # hit/miss conservation over the delta path alone: churner does
        # no lookups, so every hit and miss belongs to an apply_delta
        assert stats["hits"] == outcomes["applied"]
        assert stats["misses"] == outcomes["missed"]
        # the surviving entry is a consistent graph, not a torn update
        live = cache.get("stream")
        normalized = live.normalized_dense()
        np.testing.assert_array_equal(normalized, normalized.T)

    def test_delta_applies_atomically_under_readers(self):
        # Concurrent normalized() readers against a stream of deltas:
        # every observed snapshot must be internally consistent (equal to
        # a from-scratch normalization of SOME unnormalized state).
        from repro.graph import DynamicNormalizedAdjacency

        cache = NormalizedAdjacencyCache()
        dynamic = DynamicNormalizedAdjacency(np.zeros((5, 5)), mode="csr")
        cache.put("live", dynamic)
        barrier = threading.Barrier(3)
        bad = []

        def writer():
            barrier.wait(timeout=10.0)
            rng = np.random.default_rng(0)
            for _ in range(200):
                i = int(rng.integers(0, 5))
                j = (i + 1 + int(rng.integers(0, 4))) % 5
                cache.apply_delta("live", [(i, j, float(rng.random())
                                            + 0.1)])

        def reader():
            barrier.wait(timeout=10.0)
            for _ in range(200):
                entry = cache.get("live")
                snap = entry.normalized()
                data = snap.data          # copy-on-write snapshot
                if not np.all(np.isfinite(data)):
                    bad.append("non-finite")

        run_threads([writer, reader, reader])
        assert bad == []
        assert cache.stats()["deltas"] == 200

    def test_clear_races_put_leaves_consistent_cache(self):
        cache = NormalizedAdjacencyCache(max_entries=16)
        barrier = threading.Barrier(4)

        def writer(worker_id):
            def body():
                barrier.wait(timeout=10.0)
                for i in range(200):
                    cache.put((worker_id, i % 8), np.ones(2))
            return body

        def clearer():
            barrier.wait(timeout=10.0)
            for _ in range(100):
                cache.clear()

        run_threads([writer(0), writer(1), writer(2), clearer])
        stats = cache.stats()
        assert 0 <= stats["entries"] <= 16
        assert len(cache) == stats["entries"]
