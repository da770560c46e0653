"""Backward-pass buffer arena: recycle gradient buffers across steps.

Every backward pass materialises one owned buffer per graph node (the first
``_accumulate`` copy).  In a training loop those buffers have exactly the
same ``(shape, dtype)`` signature step after step, so instead of returning
them to the allocator when the graph is freed, the engine hands them to this
arena and re-acquires them on the next pass.  After a one-step warmup a
steady-state epoch allocates (almost) nothing on the backward path.

The arena is numerics-neutral: acquired buffers are fully overwritten by
``np.copyto`` before use, so results are bitwise-identical with the arena on
or off.  It is disabled by default and switched on by the trainer (see
``TrainConfig.buffer_arena``) or explicitly via :func:`enable_arena` /
:func:`arena`.

Counters (hits, misses, released, bytes_reused, live) are exposed through
:func:`arena_stats` and surfaced by the ``repro.obs`` profiler and the
schema-v1 bench telemetry.

The arena pools only backward buffers.  The forward temporaries of a step
(the im2col ``cols`` of the temporal convolution, the Eq. 5 adjacency
stack, ...) still go back to the C allocator, and glibc by default trims
the freed heap top back to the kernel, so the next step faults every page
in again.  :func:`retain_heap`, called once by ``Trainer.fit``, raises
glibc's trim and mmap thresholds so those pages stay with the process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = [
    "enable_arena", "arena_enabled", "arena", "arena_stats", "reset_arena",
    "clear_arena", "retain_heap",
]

_enabled = False

# Free buffers keyed by (shape, dtype str); most-recently-released reused
# first (LIFO) for cache warmth.
_free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}

# Buffers currently handed out, keyed by id().  Holding a strong reference
# pins the id so a foreign array can never alias a tracked buffer; release()
# only accepts arrays found here, which keeps externally-created arrays (and
# double releases) out of the free lists.
_live: Dict[int, np.ndarray] = {}

_hits = 0
_misses = 0
_released = 0
_bytes_reused = 0

# Outcome of the process's one retain_heap() attempt; None until tried.
_heap_retained: Optional[bool] = None

# glibc <malloc.h> parameter numbers and the values retain_heap() sets.
# Any mallopt threshold call switches off glibc's dynamic mmap threshold,
# so both are set: 32 MiB is the ceiling the dynamic threshold would climb
# to on a 64-bit build (DEFAULT_MMAP_THRESHOLD_MAX), and the trim threshold
# is twice that.  Setting the trim threshold alone would pin the mmap
# threshold at its 128 KiB start and mmap every large array instead.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def enable_arena(enabled: bool = True) -> bool:
    """Turn the arena on or off; returns the previous state.

    Disabling drops all pooled buffers so memory is returned; the counters
    are kept so a finished run's hit/miss totals remain readable (zero them
    explicitly with :func:`reset_arena`).
    """
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    if not _enabled:
        _free.clear()
        _live.clear()
    return previous


def arena_enabled() -> bool:
    """Whether backward temporaries are currently drawn from the arena."""
    return _enabled


@contextmanager
def arena(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping arena use to a block."""
    previous = enable_arena(enabled)
    try:
        yield
    finally:
        enable_arena(previous)


def materialize(grad: np.ndarray, dtype) -> np.ndarray:
    """Return an owned copy of ``grad`` cast to ``dtype``.

    With the arena enabled the copy lands in a recycled buffer when one with
    the right signature is pooled (hit) or a freshly tracked allocation
    (miss); otherwise it is a plain ``astype`` copy.
    """
    if not _enabled:
        return grad.astype(dtype, copy=True)
    global _hits, _misses, _bytes_reused
    key = (grad.shape, np.dtype(dtype).str)
    stack = _free.get(key)
    if stack:
        buf = stack.pop()
        _hits += 1
        _bytes_reused += buf.nbytes
    else:
        buf = np.empty(grad.shape, dtype=dtype)
        _misses += 1
    np.copyto(buf, grad, casting="same_kind")
    _live[id(buf)] = buf
    return buf


def release(buf) -> None:
    """Return a buffer to the pool.  Unknown arrays and ``None`` are ignored."""
    if buf is None or not _enabled:
        return
    global _released
    tracked = _live.pop(id(buf), None)
    if tracked is None:
        return
    _released += 1
    key = (tracked.shape, tracked.dtype.str)
    _free.setdefault(key, []).append(tracked)


def arena_stats() -> Dict[str, int]:
    """Counters since the last :func:`reset_arena`.

    ``misses`` is the arena's allocation count: at steady state (after the
    warmup pass) it should stay flat from step to step.
    """
    pooled = sum(len(v) for v in _free.values())
    pooled_bytes = sum(b.nbytes for v in _free.values() for b in v)
    return {
        "enabled": _enabled,
        "hits": _hits,
        "misses": _misses,
        "released": _released,
        "bytes_reused": _bytes_reused,
        "live": len(_live),
        "pooled": pooled,
        "pooled_bytes": pooled_bytes,
        "heap_retained": bool(_heap_retained),
    }


def reset_arena() -> None:
    """Zero the counters (pooled buffers are kept)."""
    global _hits, _misses, _released, _bytes_reused
    _hits = _misses = _released = _bytes_reused = 0


def clear_arena() -> None:
    """Drop every pooled and tracked buffer and zero the counters."""
    _free.clear()
    _live.clear()
    reset_arena()


def retain_heap() -> bool:
    """Keep freed heap memory with the process; returns whether it took.

    A training step frees the same 100 KB–1 MB NumPy temporaries it
    allocated, and glibc's default thresholds hand that memory back to the
    kernel (heap trim, or ``munmap`` of an mmapped block) so the next step
    zero-fills every page again: ~2,000 minor page faults per RT-GCN (T)
    step at the Fig. 5 shape.  This sets ``M_MMAP_THRESHOLD`` to 32 MiB and
    ``M_TRIM_THRESHOLD`` to 64 MiB through ``mallopt`` once per process;
    later calls return the first outcome.  Forked children inherit the
    setting.  Without glibc (no ``mallopt``, or it refuses a value) it is a
    no-op returning False.  Numerics are untouched.
    """
    global _heap_retained
    if _heap_retained is None:
        try:
            import ctypes
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            _heap_retained = bool(
                mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))
        except (AttributeError, OSError, TypeError):  # no glibc malloc
            _heap_retained = False
    return _heap_retained


# A forked child inherits the parent's pooled and live buffers, but any
# in-flight backward graph those buffers belong to stays in the parent —
# reusing them in the child would alias two processes' gradients through
# copy-on-write surprises.  Start every child with an empty arena.
import os as _os

if hasattr(_os, "register_at_fork"):
    _os.register_at_fork(after_in_child=clear_arena)
