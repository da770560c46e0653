"""Dropout layers (elementwise and spatial/channelwise variants)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, ensure_tensor
from .module import Module
from .random import get_rng


class Dropout(Module):
    """Inverted elementwise dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else get_rng()

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.uniform(size=x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class SpatialDropout1d(Module):
    """Channelwise dropout for ``(batch, channels, length)`` tensors.

    Zeroes entire feature maps instead of single elements (Srivastava et
    al.'s dropout applied per channel), as the paper adds "a spatial dropout
    after each TCN layer for regularization" (§IV-C).
    """

    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng if rng is not None else get_rng()

    def draw_mask(self, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """The scaled keep-mask for an input of ``shape``, broadcast over
        its last axis; ``None`` (identity) in eval mode or at ``p = 0``."""
        if not self.training or self.p == 0.0:
            return None
        if len(shape) < 2:
            raise ValueError("SpatialDropout1d expects at least 2-D input")
        mask_shape = tuple(shape[:-1]) + (1,)
        return (self._rng.uniform(size=mask_shape) >= self.p) / (1.0 - self.p)

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        mask = self.draw_mask(x.shape)
        return x if mask is None else x * Tensor(mask)

    def __repr__(self) -> str:
        return f"SpatialDropout1d(p={self.p})"
