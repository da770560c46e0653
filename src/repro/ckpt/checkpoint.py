"""The versioned checkpoint format: atomic, checksummed ``.npz`` archives.

A checkpoint is a single ``.npz`` file holding

- ``model/<param>`` — every model parameter array;
- ``best/<param>`` — the early-stopping best parameters, when tracked;
- ``optim/<index>/<slot>`` — optimizer buffers (Adam ``m``/``v``, ...);
- ``__meta__`` — a JSON blob (format version, model class, optimizer
  hyperparameters and step count, RNG states, the training cursor, a
  ``TrainConfig`` snapshot, and user metadata);
- ``__checksum__`` — a SHA-256 digest over every other entry, so a
  truncated or bit-flipped archive is detected on load instead of
  silently resuming from garbage.

Writes are atomic: the archive is serialised to a temporary file in the
destination directory, fsynced, and ``os.replace``d into place, so a
crash mid-write can never leave a half-written file under the final
name — the worst case is a stale ``*.tmp-*`` file that loaders ignore.

Format version 2 supersedes the parameters-only version 1 written by
earlier releases; :func:`read_archive` loads both (v1 archives surface
as model-only checkpoints with no optimizer/RNG/cursor state).
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

FORMAT_VERSION = 2

_META_KEY = "__meta__"
_CHECKSUM_KEY = "__checksum__"
#: the metadata key of the parameters-only v1 format
_V1_META_KEY = "__checkpoint_meta__"

_MODEL_PREFIX = "model/"
_BEST_PREFIX = "best/"
_OPTIM_PREFIX = "optim/"


class CheckpointError(RuntimeError):
    """A checkpoint could not be read: missing, corrupt, or incompatible.

    The message always names the offending path and what to do about it
    (delete/retrain, fall back to an older checkpoint, or upgrade).
    """


def _json_default(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """JSON-ready state of a NumPy generator (bit-generator dict)."""
    return generator.bit_generator.state


def restore_rng(generator: np.random.Generator,
                state: Dict[str, Any]) -> None:
    """Set ``generator`` to a state captured by :func:`rng_state`.

    The generator must wrap the same bit-generator algorithm; NumPy
    validates the payload and raises otherwise.
    """
    generator.bit_generator.state = state


@dataclass
class TrainingCheckpoint:
    """Everything needed to continue a training run bitwise-identically.

    ``cursor`` holds the position inside the fit loop::

        {"epoch": e,            # epoch currently in progress (0-based)
         "batch_index": b,      # batches of that epoch already applied
         "day_order": [...],    # the epoch's shuffled day order (or None)
         "epoch_loss": x,       # loss accumulated over those b batches
         "losses": [...]}       # completed epochs' mean losses

    ``rng`` maps stream names (``"shuffle"``, ``"global"``, and one per
    model RNG discovered via ``named_modules``) to bit-generator states.
    ``early_stopping`` carries ``best_val`` / ``bad_epochs``; the best
    parameters themselves live in :attr:`best_model_state` so they stay
    arrays, not JSON.
    """

    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any] = field(default_factory=dict)
    rng: Dict[str, Any] = field(default_factory=dict)
    cursor: Dict[str, Any] = field(default_factory=dict)
    early_stopping: Dict[str, Any] = field(default_factory=dict)
    best_model_state: Optional[Dict[str, np.ndarray]] = None
    config: Dict[str, Any] = field(default_factory=dict)
    model_class: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    @property
    def epoch(self) -> int:
        """Epoch the checkpoint was taken in (0 when no cursor stored)."""
        return int(self.cursor.get("epoch", 0))

    @property
    def batch_index(self) -> int:
        """Batches of :attr:`epoch` already applied when captured."""
        return int(self.cursor.get("batch_index", 0))


def _config_snapshot(config: Any) -> Dict[str, Any]:
    if config is None:
        return {}
    if is_dataclass(config) and not isinstance(config, type):
        return asdict(config)
    return dict(config)


def _checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every entry's name, dtype, shape, and raw bytes, in
    sorted-name order, so the digest is deterministic and covers layout
    as well as content."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _meta_array(meta: Dict[str, Any]) -> np.ndarray:
    payload = json.dumps(meta, sort_keys=True, default=_json_default)
    return np.frombuffer(payload.encode("utf-8"), dtype=np.uint8)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via tmp-file + fsync + rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".tmp-",
                                    dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_archive(path: Union[str, Path], arrays: Dict[str, np.ndarray],
                  meta: Dict[str, Any]) -> Path:
    """Atomically write a checksummed v2 archive; returns the final path."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays = dict(arrays)
    arrays[_META_KEY] = _meta_array(meta)
    arrays[_CHECKSUM_KEY] = np.frombuffer(
        _checksum(arrays).encode("ascii"), dtype=np.uint8)
    buffer = _io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue())
    return path


def verify_archive(path: Union[str, Path]) -> Dict[str, Any]:
    """Validate an archive and return its metadata without loading arrays
    into a model; raises :class:`CheckpointError` on any defect."""
    _, meta = read_archive(path)
    return meta


def read_archive(path: Union[str, Path]
                 ) -> "tuple[Dict[str, np.ndarray], Dict[str, Any]]":
    """Read and verify an archive: ``(arrays, meta)``.

    Accepts both format v2 (checksummed) and the legacy v1 layout
    (parameters + ``__checkpoint_meta__``, no checksum).
    Raises :class:`CheckpointError` with an actionable message when the
    file is missing, unreadable, or fails its checksum.
    """
    path = Path(path)
    if not path.exists() and path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist; pass the "
                              "path returned by save(), or list the "
                              "checkpoint directory for available files")
    try:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, zlib.error, EOFError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc}); the file is likely "
            "truncated by an interrupted write — delete it and resume from "
            "an older checkpoint") from exc

    if _V1_META_KEY in arrays:                      # legacy v1 format
        meta = _decode_meta(path, arrays.pop(_V1_META_KEY))
        meta.setdefault("format_version", 1)
        meta["model"] = sorted(arrays)
        return arrays, meta

    if _META_KEY not in arrays:
        raise CheckpointError(f"{path} is not a repro checkpoint (no "
                              "metadata entry); it was not written by "
                              "repro.ckpt")
    stored = arrays.pop(_CHECKSUM_KEY, None)
    if stored is None:
        raise CheckpointError(f"checkpoint {path} has no checksum entry; "
                              "the archive is incomplete — delete it and "
                              "resume from an older checkpoint")
    expected = bytes(stored).decode("ascii")
    actual = _checksum(arrays)
    if actual != expected:
        raise CheckpointError(
            f"checkpoint {path} failed checksum verification (stored "
            f"{expected[:12]}..., computed {actual[:12]}...); the file is "
            "corrupt — delete it and resume from an older checkpoint")
    meta = _decode_meta(path, arrays.pop(_META_KEY))
    version = meta.get("format_version")
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"checkpoint {path} has format_version "
                              f"{version!r}; this build reads versions 1 "
                              f"and {FORMAT_VERSION} — upgrade repro to "
                              "load it")
    return arrays, meta


def _decode_meta(path: Path, blob: np.ndarray) -> Dict[str, Any]:
    try:
        return json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} has corrupt metadata "
                              f"({exc}); delete it and resume from an "
                              "older checkpoint") from exc


def save(checkpoint: TrainingCheckpoint, path: Union[str, Path]) -> Path:
    """Serialise a :class:`TrainingCheckpoint` to ``path`` atomically."""
    arrays: Dict[str, np.ndarray] = {}
    for name, array in checkpoint.model_state.items():
        arrays[_MODEL_PREFIX + name] = np.asarray(array)
    if checkpoint.best_model_state is not None:
        for name, array in checkpoint.best_model_state.items():
            arrays[_BEST_PREFIX + name] = np.asarray(array)
    optim_meta: Dict[str, Any] = {}
    if checkpoint.optimizer_state:
        optim_meta = {k: v for k, v in checkpoint.optimizer_state.items()
                      if k != "state"}
        for index, slots in checkpoint.optimizer_state.get("state",
                                                           {}).items():
            for slot, array in slots.items():
                arrays[f"{_OPTIM_PREFIX}{index}/{slot}"] = np.asarray(array)
    meta = {
        "format_version": checkpoint.format_version,
        "model_class": checkpoint.model_class,
        "has_best": checkpoint.best_model_state is not None,
        "optimizer": optim_meta,
        "rng": checkpoint.rng,
        "cursor": checkpoint.cursor,
        "early_stopping": checkpoint.early_stopping,
        "config": _config_snapshot(checkpoint.config),
        "user": checkpoint.metadata,
    }
    return write_archive(path, arrays, meta)


def load(path: Union[str, Path]) -> TrainingCheckpoint:
    """Read a :class:`TrainingCheckpoint` back from ``path``.

    v1 archives load as model-only checkpoints: parameters are present,
    optimizer/RNG/cursor state are empty, and ``format_version`` is 1 so
    callers can refuse a mid-run resume from a parameters-only file.
    """
    arrays, meta = read_archive(path)
    if meta.get("format_version") == 1:
        return TrainingCheckpoint(
            model_state=dict(arrays), format_version=1,
            model_class=meta.get("model_class", ""),
            metadata=meta.get("user", {}))
    model_state: Dict[str, np.ndarray] = {}
    best_state: Dict[str, np.ndarray] = {}
    optim_buffers: Dict[int, Dict[str, np.ndarray]] = {}
    for name, array in arrays.items():
        if name.startswith(_MODEL_PREFIX):
            model_state[name[len(_MODEL_PREFIX):]] = array
        elif name.startswith(_BEST_PREFIX):
            best_state[name[len(_BEST_PREFIX):]] = array
        elif name.startswith(_OPTIM_PREFIX):
            index_str, slot = name[len(_OPTIM_PREFIX):].split("/", 1)
            optim_buffers.setdefault(int(index_str), {})[slot] = array
    optimizer_state = dict(meta.get("optimizer", {}))
    if optimizer_state or optim_buffers:
        optimizer_state["state"] = optim_buffers
    return TrainingCheckpoint(
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng=meta.get("rng", {}),
        cursor=meta.get("cursor", {}),
        early_stopping=meta.get("early_stopping", {}),
        best_model_state=best_state if meta.get("has_best") else None,
        config=meta.get("config", {}),
        model_class=meta.get("model_class", ""),
        metadata=meta.get("user", {}),
        format_version=int(meta.get("format_version", FORMAT_VERSION)))
