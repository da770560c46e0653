"""Shared-memory model weights with generation-tagged hot swap.

The cluster serving tier keeps exactly one copy of the model weights in
RAM regardless of worker count: the front-end publishes every parameter
array into one ``multiprocessing.shared_memory`` segment and the forked
inference workers map their model parameters directly onto that segment
(:func:`adopt_views` — a NumPy view over the shared buffer, no copy).

- :func:`publish_state` writes a state dict as one self-describing
  segment (8-byte little-endian header length, JSON header, 64-byte
  aligned arrays, magic ``repro-shm-v1``); :func:`attach_state` maps it
  as read-only zero-copy views (:class:`SharedModelState`), and
  :func:`adopt_views` points a model's parameters at them
  (validate-then-assign, never half-swapped).
- Each published state dict becomes its own immutable segment named
  ``<base>-g<N>``.  Segments are never mutated after publish, so a
  worker mid-forward can keep reading generation ``N`` while generation
  ``N+1`` already exists.
- A tiny fixed control segment ``<base>-ctl`` carries the *current*
  generation number behind a seqlock (write the sequence odd, write the
  payload, write the sequence even; readers retry on a torn read).
  Workers check it between requests — in-flight requests finish on the
  old weights, the next request sees the new ones.
- :class:`SharedWeightStore` (front-end side) retires old generations
  two behind the head: POSIX keeps an unlinked segment alive until the
  last mapping closes, so a worker that has not yet swapped keeps
  working while the name disappears for newcomers.

Everything here is torn down explicitly (``close``/``unlink``); the
forked workers share the parent's ``resource_tracker``, so a crashed
front-end still gets its segments reaped by the tracker.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

try:                                     # gate: platforms without shm
    from multiprocessing import shared_memory as _shm
except ImportError:                      # pragma: no cover - exotic builds
    _shm = None

__all__ = ["ShmUnavailableError", "SharedModelState", "GenerationControl",
           "SharedWeightStore", "SharedWeightReader", "publish_state",
           "attach_state", "adopt_views", "shm_available"]

#: every array starts on a 64-byte boundary (cache line; keeps any dtype
#: aligned no matter what precedes it)
_ALIGN = 64
#: segment layout: 8-byte little-endian header length, JSON header, arrays
_LEN_FMT = "<Q"
_LEN_SIZE = struct.calcsize(_LEN_FMT)
#: control segment: seqlock counter + current generation, both uint64
_CTL_FMT = "<QQ"
_CTL_SIZE = struct.calcsize(_CTL_FMT)


class ShmUnavailableError(RuntimeError):
    """POSIX shared memory is not usable on this platform."""


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is importable here."""
    return _shm is not None


def _require_shm():
    if _shm is None:
        raise ShmUnavailableError(
            "multiprocessing.shared_memory is unavailable on this "
            "platform; the serving cluster needs it")
    return _shm


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def default_base_name() -> str:
    """A collision-resistant base name for one owner's segments."""
    return f"repro-serve-{os.getpid()}-{secrets.token_hex(4)}"


class SharedModelState:
    """One mapped segment of named arrays: shm handle + parsed layout.

    Obtain via :func:`publish_state` (owner side) or
    :func:`attach_state` (reader side); the distinction only matters for
    :meth:`unlink`, which the owner calls exactly once per segment.
    """

    def __init__(self, shm, header: Dict[str, Any], owner: bool):
        self.shm = shm
        self.header = header
        self.owner = owner
        self.generation = int(header["generation"])
        self.version = str(header["version"])
        self._views: Optional[Dict[str, np.ndarray]] = None

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def nbytes(self) -> int:
        return self.shm.size

    def views(self) -> Dict[str, np.ndarray]:
        """Read-only zero-copy array views over the shared buffer.

        Read-only so an inference worker fails loudly on an accidental
        in-place update instead of corrupting every sibling.  The
        returned arrays alias ``self.shm.buf``; they stay valid exactly
        as long as this object is kept alive and not closed.
        """
        if self._views is None:
            views = {}
            for entry in self.header["entries"]:
                dtype = np.dtype(entry["dtype"])
                shape = tuple(entry["shape"])
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                view = np.frombuffer(self.shm.buf, dtype=dtype,
                                     count=count,
                                     offset=int(entry["offset"]))
                view = view.reshape(shape)
                view.flags.writeable = False
                views[entry["name"]] = view
            self._views = views
        return self._views

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of every array (for callers that must own the memory)."""
        return {name: np.array(view) for name, view in self.views().items()}

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self._views = None
        try:
            self.shm.close()
        except (OSError, BufferError):      # pragma: no cover - best effort
            pass

    def unlink(self) -> None:
        """Remove the segment name (owner only; mappings stay alive)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:           # pragma: no cover - already gone
            pass


def publish_state(state: Dict[str, np.ndarray], name: str, *,
                  generation: int = 0,
                  version: str = "",
                  extra: Optional[Dict[str, Any]] = None
                  ) -> SharedModelState:
    """Write a state dict into a new shared segment called ``name``.

    The segment is immutable once written: a hot swap publishes a *new*
    segment.
    """
    shm_mod = _require_shm()
    entries: List[Dict[str, Any]] = []
    arrays: List[Tuple[np.ndarray, int]] = []
    # Two passes: the header must know every offset, but offsets depend
    # on the header length.  Fix the header length by first rendering it
    # with placeholder offsets of the same width (offsets are ints, so
    # render with the final values computed against a header whose size
    # is measured from a maximal-width draft).
    def render(entries_: List[Dict[str, Any]]) -> bytes:
        payload = {"magic": "repro-shm-v1", "generation": int(generation),
                   "version": str(version), "entries": entries_,
                   **(extra or {})}
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def contiguous(value) -> np.ndarray:
        array = np.asarray(value)
        # np.ascontiguousarray promotes 0-d to 1-d; 0-d is always
        # contiguous, so only reach for it when actually needed.
        return (array if array.flags.c_contiguous
                else np.ascontiguousarray(array))

    items = [(key, contiguous(value)) for key, value in state.items()]
    draft_entries = [{"name": key, "dtype": arr.dtype.str,
                      "shape": list(arr.shape), "offset": 2 ** 62}
                     for key, arr in items]
    header_len = len(render(draft_entries))
    data_start = _align(_LEN_SIZE + header_len)
    offset = data_start
    for (key, arr), entry in zip(items, draft_entries):
        entry["offset"] = offset
        arrays.append((arr, offset))
        offset = _align(offset + arr.nbytes)
        entries.append(entry)
    header_bytes = render(entries)
    # Offsets rendered shorter than the 2**62 placeholder leave the
    # header shorter than measured — pad with spaces (valid JSON suffix
    # whitespace) so data_start stays where the offsets say it is.
    header_bytes += b" " * (header_len - len(header_bytes))
    total = max(offset, data_start + 1)
    shm = shm_mod.SharedMemory(name=name, create=True, size=total)
    shm.buf[:_LEN_SIZE] = struct.pack(_LEN_FMT, header_len)
    shm.buf[_LEN_SIZE:_LEN_SIZE + header_len] = header_bytes
    for arr, off in arrays:
        dest = np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size,
                             offset=off).reshape(arr.shape)
        dest[...] = arr
    return SharedModelState(shm, json.loads(header_bytes), owner=True)


def attach_state(name: str) -> SharedModelState:
    """Map an existing published segment (zero-copy)."""
    shm_mod = _require_shm()
    shm = shm_mod.SharedMemory(name=name, create=False)
    (header_len,) = struct.unpack_from(_LEN_FMT, shm.buf, 0)
    raw = bytes(shm.buf[_LEN_SIZE:_LEN_SIZE + header_len])
    header = json.loads(raw)
    if header.get("magic") != "repro-shm-v1":
        shm.close()
        raise ValueError(f"segment {name!r} is not a repro weight segment")
    return SharedModelState(shm, header, owner=False)


def adopt_views(model, views: Dict[str, np.ndarray]) -> None:
    """Point every parameter of ``model`` at the shared views (no copy).

    Unlike ``load_state_dict`` (which copies into the existing arrays),
    this swaps the parameter storage itself, so N processes share one
    physical copy of the weights.  The views are read-only, so an
    accidental in-place update fails loudly instead of corrupting every
    sibling.
    """
    own = dict(model.named_parameters())
    missing = sorted(set(own) - set(views))
    if missing:
        raise KeyError(f"shared state lacks parameters: {missing}")
    # Validate everything before assigning anything: a mismatch found
    # halfway through must not leave the model half-swapped (the caller
    # keeps serving the old weights after catching the error).
    for name, param in own.items():
        view = views[name]
        if param.data.shape != view.shape:
            raise ValueError(
                f"shape mismatch adopting {name!r}: parameter is "
                f"{param.data.shape}, shared view is {view.shape}")
        if param.data.dtype != view.dtype:
            raise ValueError(
                f"dtype mismatch adopting {name!r}: parameter is "
                f"{param.data.dtype}, shared view is {view.dtype}")
    for name, param in own.items():
        param.data = views[name]
        param.grad = None


class GenerationControl:
    """The seqlock'd current-generation slot in a ``<base>-ctl`` segment.

    One writer, many readers.  The write protocol makes the sequence
    odd, stores the generation, then makes the sequence even again; a
    reader that observes an odd or changing sequence simply retries, so
    a torn read can never surface.  The generation is a
    published-segment counter.
    """

    def __init__(self, shm, owner: bool):
        self.shm = shm
        self.owner = owner

    @classmethod
    def create(cls, name: str) -> "GenerationControl":
        shm = _require_shm().SharedMemory(name=name, create=True,
                                          size=_CTL_SIZE)
        shm.buf[:_CTL_SIZE] = struct.pack(_CTL_FMT, 0, 0)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "GenerationControl":
        shm = _require_shm().SharedMemory(name=name, create=False)
        return cls(shm, owner=False)

    def publish(self, generation: int) -> None:
        """Store a new current generation (single-writer only)."""
        (seq, _) = struct.unpack_from(_CTL_FMT, self.shm.buf, 0)
        struct.pack_into("<Q", self.shm.buf, 0, seq + 1)      # odd: writing
        struct.pack_into("<Q", self.shm.buf, struct.calcsize("<Q"),
                         int(generation))
        struct.pack_into("<Q", self.shm.buf, 0, seq + 2)      # even: done

    def current(self) -> int:
        """The current generation (retries across in-progress writes)."""
        while True:
            seq1, generation = struct.unpack_from(_CTL_FMT, self.shm.buf, 0)
            if seq1 % 2:
                continue
            seq2, _ = struct.unpack_from(_CTL_FMT, self.shm.buf, 0)
            if seq1 == seq2:
                return int(generation)

    def close(self) -> None:
        try:
            self.shm.close()
        except (OSError, BufferError):      # pragma: no cover - best effort
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:           # pragma: no cover - already gone
            pass


class SharedWeightStore:
    """Front-end owner of the control segment and the live generations.

    ``publish(state_dict, version)`` creates generation ``N+1``, flips
    the control slot, and unlinks everything more than ``keep``
    generations behind — the atomic hot-swap primitive the cluster's
    :class:`~repro.serve.cluster.ClusterServer` drives.
    """

    def __init__(self, base_name: Optional[str] = None, keep: int = 2):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.base_name = base_name or default_base_name()
        self.keep = int(keep)
        self.control = GenerationControl.create(f"{self.base_name}-ctl")
        self._generations: "Dict[int, SharedModelState]" = {}
        self._next_generation = 0

    def segment_name(self, generation: int) -> str:
        return f"{self.base_name}-g{int(generation)}"

    def publish(self, state: Dict[str, np.ndarray],
                version: str = "") -> SharedModelState:
        """Publish a new current generation; returns its shared state."""
        generation = self._next_generation
        published = publish_state(
            state, self.segment_name(generation),
            generation=generation, version=version)
        self._generations[generation] = published
        self._next_generation += 1
        self.control.publish(generation)
        self._retire(head=generation)
        return published

    def current_generation(self) -> int:
        """The generation last published.

        The store is the control slot's only writer, so this is its own
        count, not a read of the slot; it moves just before the slot
        flips.
        """
        return max(self._next_generation - 1, 0)

    def _retire(self, head: int) -> None:
        for generation in sorted(self._generations):
            if generation <= head - self.keep:
                old = self._generations.pop(generation)
                old.unlink()
                old.close()

    def close(self, unlink: bool = True) -> None:
        """Tear down every mapping (and, by default, every name)."""
        for state in self._generations.values():
            if unlink:
                state.unlink()
            state.close()
        self._generations.clear()
        if unlink:
            self.control.unlink()
        self.control.close()


class SharedWeightReader:
    """Worker-side attachment: track the control slot, swap on change.

    :meth:`refresh` is the per-request check — O(one struct unpack) when
    nothing changed, one segment attach + view adoption when the
    front-end published a new generation.  :attr:`generation` is the
    generation the caller's model holds, which after a refused adoption
    is not the newest published one.
    """

    def __init__(self, base_name: str):
        self.base_name = base_name
        self.control = GenerationControl.attach(f"{base_name}-ctl")
        self.state: Optional[SharedModelState] = None
        self._previous: Optional[SharedModelState] = None
        self._refused: Optional[SharedModelState] = None
        self._seen = -1
        self.generation = -1

    def refresh(self, adopt: Optional[
            Callable[[Dict[str, np.ndarray]], None]] = None) -> bool:
        """Attach the current generation if it changed; True on swap.

        ``adopt(views)`` re-points the caller's model at the fresh
        views.  The reader moves to the new generation only once it
        returns.  When it raises, :attr:`generation` and :attr:`state`
        stay on the generation the model still holds (its mapping stays
        open), the refused segment is parked until the next publish,
        and the error propagates; a refused generation is not retried.

        The *previous* generation's mapping is kept open for one more
        swap, so views of it that are still referenced stay valid.
        Closing lags one behind.
        """
        current = self.control.current()
        if current == self._seen:
            return False
        fresh = attach_state(f"{self.base_name}-g{current}")
        self._seen = current
        if self._refused is not None:
            self._refused.close()
            self._refused = None
        if adopt is not None:
            try:
                adopt(fresh.views())
            except BaseException:
                # Parked, not closed: the propagating traceback can still
                # reference its views, and closing an exported buffer
                # fails.
                self._refused = fresh
                raise
        if self._previous is not None:
            self._previous.close()
        old, self.state, self.generation = self.state, fresh, current
        self._previous = old
        return True

    @property
    def version(self) -> str:
        return self.state.version if self.state is not None else ""

    def views(self) -> Dict[str, np.ndarray]:
        if self.state is None:
            raise RuntimeError("refresh() has not attached a generation yet")
        return self.state.views()

    def close(self) -> None:
        for state in (self.state, self._previous, self._refused):
            if state is not None:
                state.close()
        self.state = self._previous = self._refused = None
        self.control.close()
