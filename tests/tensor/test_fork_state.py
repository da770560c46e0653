"""Process-global tensor state across fork(): what a forked worker inherits.

The experiment pool and the serving cluster fork workers from a parent
whose process-global tensor state may be mid-use.  These tests pin the
inheritance contract: the buffer arena starts *empty* in every child
(an ``os.register_at_fork`` hook; inherited backward buffers belong to
the parent's graph), and the dtype policy carries over.
"""

import multiprocessing

import numpy as np
import pytest

from repro.parallel import fork_available
from repro.tensor import (arena, arena_stats, clear_arena, default_dtype,
                          dtype_policy)
from repro.tensor.arena import materialize, release

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="needs the fork start method")

_CTX = multiprocessing.get_context("fork")


def _in_child(target):
    """Run ``target`` in a forked child; returns what it sends back."""
    parent_conn, child_conn = _CTX.Pipe(duplex=False)

    def main():
        child_conn.send(target())

    process = _CTX.Process(target=main, daemon=True)
    process.start()
    try:
        assert parent_conn.poll(30.0), "child produced no result"
        return parent_conn.recv()
    finally:
        process.join(timeout=10.0)


class TestArenaAcrossFork:
    def test_child_starts_with_empty_arena(self):
        clear_arena()
        with arena():
            # populate the pool and leave a live buffer outstanding
            pooled = materialize(np.ones((4, 4)), np.float64)
            release(pooled)
            live = materialize(np.ones((2, 2)), np.float64)

            stats = _in_child(arena_stats)
            # the hook wiped pooled + live buffers and zeroed counters...
            assert stats["live"] == 0
            assert stats["pooled"] == 0 if "pooled" in stats else True
            assert stats["hits"] == 0 and stats["misses"] == 0
            # ...but enablement (plain bool) carries over
            assert stats["enabled"] is True

            # the parent's arena is untouched by the child's hook
            parent = arena_stats()
            assert parent["live"] == 1
            assert parent["misses"] == 2
            release(live)

    def test_child_reuse_never_aliases_parent_buffers(self):
        clear_arena()
        with arena():
            first = materialize(np.full((3, 3), 7.0), np.float64)
            release(first)

            def child():
                # a pool hit here would hand back the parent's buffer
                buf = materialize(np.zeros((3, 3)), np.float64)
                return arena_stats()["hits"]

            assert _in_child(child) == 0           # miss: fresh memory
        clear_arena()


class TestDtypePolicyAcrossFork:
    def test_policy_carries_over_fork(self):
        with dtype_policy("float32"):
            assert _in_child(lambda: default_dtype().str) == \
                np.dtype(np.float32).str
        assert default_dtype() == np.float64
