"""Process-level dtype policy for the tensor engine.

Every array the engine materialises — tensor storage, parameter init, sparse
kernel temporaries, Adam state — is sized by the active :class:`DtypePolicy`.
The historical behaviour (float64 everywhere) remains the default; switching
to ``float32`` roughly halves memory traffic on the dense propagation path,
and ``mixed`` keeps fp32 storage while accumulating reductions in fp64 for
better-conditioned losses.

Coercion rule (shared by ``Tensor.__init__`` and ``_as_array``): an explicit
``dtype=`` argument always wins; floating inputs are never silently *widened*
but are *narrowed* to the policy's storage dtype when wider; non-float inputs
(ints, bools, lists) are cast to the storage dtype.  This respects arrays the
caller already constructed while still letting ``dtype_policy("float32")``
convert a float64 dataset to fp32 at the tensor boundary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NamedTuple, Union

import numpy as np

__all__ = [
    "DtypePolicy", "get_dtype_policy", "set_default_dtype", "dtype_policy",
    "default_dtype", "accum_dtype", "resolve_dtype", "policy_names",
]


class DtypePolicy(NamedTuple):
    """Named pair of storage and accumulation dtypes.

    ``storage`` is what tensors, parameters, and optimizer state are kept in;
    ``accumulation`` is the dtype reductions (``sum``/``mean``) accumulate in
    before the result is cast back to ``storage``.
    """

    name: str
    storage: np.dtype
    accumulation: np.dtype


_POLICIES = {
    "float64": DtypePolicy("float64", np.dtype(np.float64), np.dtype(np.float64)),
    "float32": DtypePolicy("float32", np.dtype(np.float32), np.dtype(np.float32)),
    "mixed": DtypePolicy("mixed", np.dtype(np.float32), np.dtype(np.float64)),
}

_ALIASES = {
    np.dtype(np.float64): "float64",
    np.dtype(np.float32): "float32",
}

_active = _POLICIES["float64"]


def _lookup(policy: Union[str, np.dtype, type, DtypePolicy]) -> DtypePolicy:
    if isinstance(policy, DtypePolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICIES[policy]
        except KeyError:
            raise ValueError(
                f"unknown dtype policy {policy!r}; expected one of "
                f"{sorted(_POLICIES)}") from None
    name = _ALIASES.get(np.dtype(policy))
    if name is None:
        raise ValueError(f"unsupported default dtype {policy!r}; expected "
                         "float32 or float64")
    return _POLICIES[name]


def policy_names() -> tuple:
    """The policy names :func:`set_default_dtype` accepts."""
    return tuple(_POLICIES)


def get_dtype_policy() -> DtypePolicy:
    """Return the active policy (process-wide)."""
    return _active


def set_default_dtype(policy: Union[str, np.dtype, type, DtypePolicy]) -> DtypePolicy:
    """Set the process-wide dtype policy; returns the previous one.

    Accepts a policy name (``"float64"``, ``"float32"``, ``"mixed"``), a
    NumPy float dtype, or a :class:`DtypePolicy`.
    """
    global _active
    previous = _active
    _active = _lookup(policy)
    return previous


@contextmanager
def dtype_policy(policy: Union[str, np.dtype, type, DtypePolicy]) -> Iterator[DtypePolicy]:
    """Context manager scoping the dtype policy to a block."""
    previous = set_default_dtype(policy)
    try:
        yield _active
    finally:
        set_default_dtype(previous)


def default_dtype() -> np.dtype:
    """Storage dtype of the active policy."""
    return _active.storage


def accum_dtype() -> np.dtype:
    """Accumulation dtype of the active policy (≥ storage width)."""
    return _active.accumulation


def resolve_dtype(array: np.ndarray) -> np.dtype:
    """Apply the coercion rule to an already-constructed array's dtype.

    Returns the dtype the array should be stored as under the active policy:
    floating dtypes are kept unless wider than storage (never widen, narrow
    when wider); everything else maps to the storage dtype.
    """
    storage = _active.storage
    dt = array.dtype
    if dt.kind == "f":
        return dt if dt.itemsize <= storage.itemsize else storage
    return storage
