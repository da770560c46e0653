"""Functional operations built on the autograd :class:`~repro.tensor.Tensor`.

These compose the primitive ops defined on ``Tensor`` (pad, gather, einsum,
arithmetic), so each function differentiates through the primitives' own
backward rules; only the conv1d window gather has a hand-written
(slice-based scatter) backward.  They cover what the paper's models need:
softmax attention, causal/strided 1-D convolution (the TCN of §IV-C),
dropout and utilities.  ``conv1d`` and ``linear`` are the composed
references that the single-node kernels of :mod:`repro.tensor.fused`
(used by ``repro.nn`` layers while fusion is on) must match.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from .grad_mode import is_grad_enabled
from .tensor import Tensor, concat, einsum, ensure_tensor, maximum, stack, where

__all__ = [
    "softmax", "log_softmax", "relu", "sigmoid", "tanh", "leaky_relu", "elu",
    "dropout", "conv1d", "linear", "one_hot", "mse_loss", "l1_loss",
    "binary_cross_entropy", "cross_entropy", "huber_loss",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit: ``max(x, 0)``."""
    return ensure_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    return ensure_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return ensure_tensor(x).tanh()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """ReLU with a small slope for negative inputs."""
    return ensure_tensor(x).leaky_relu(negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (smooth negative saturation at −alpha)."""
    return ensure_tensor(x).elu(alpha)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))``."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` and rescale.

    A no-op when ``training`` is false or ``p == 0`` so evaluation paths do
    not depend on the random generator.
    """
    if not training or p <= 0.0:
        return ensure_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = ensure_tensor(x)
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.uniform(size=x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = ensure_tensor(x) @ weight.swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    return out


def _normalize_padding(padding: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(padding, int):
        return (padding, padding)
    left, right = padding
    return (int(left), int(right))


def _tap_slices(out_len: int, kernel: int, stride: int,
                dilation: int) -> List[slice]:
    """Per kernel tap, the strided slice of the (padded) input it reads."""
    return [slice(j * dilation, j * dilation + (out_len - 1) * stride + 1,
                  stride)
            for j in range(kernel)]


def _extract_windows(x: Tensor, out_len: int, kernel: int, stride: int,
                     dilation: int) -> Tensor:
    """Sliding windows ``(B, C, out_len, kernel)`` over the last axis.

    Equivalent to fancy-indexed gathering but with a slice-based backward:
    each kernel tap covers a strided slice of the input, so the scatter
    reduces to ``kernel`` vectorized ``+=`` operations instead of
    ``np.add.at`` (which is an order of magnitude slower and dominated the
    training profile).
    """
    starts = np.arange(out_len) * stride
    taps = np.arange(kernel) * dilation
    gather = starts[:, None] + taps[None, :]
    data = x.data[:, :, gather]

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        for j, tap in enumerate(_tap_slices(out_len, kernel, stride,
                                            dilation)):
            full[:, :, tap] += grad[:, :, :, j]
        x._accumulate(full)

    return x._make_child(data, (x,), backward)


def _conv1d_geometry(x_shape: Tuple[int, ...], w_shape: Tuple[int, ...],
                     padding: Union[int, Tuple[int, int]], stride: int,
                     dilation: int) -> Tuple[int, int, int]:
    """Validate a conv1d call; return ``(left_pad, right_pad, out_len)``."""
    if len(x_shape) != 3:
        raise ValueError("conv1d expects (B, C, L) input, got shape "
                         f"{x_shape}")
    if len(w_shape) != 3:
        raise ValueError("conv1d expects (C_out, C_in, k) weight, got shape "
                         f"{w_shape}")
    if x_shape[1] != w_shape[1]:
        raise ValueError(f"channel mismatch: input has {x_shape[1]}, weight "
                         f"expects {w_shape[1]}")
    left, right = _normalize_padding(padding)
    padded_len = x_shape[2] + left + right
    span = (w_shape[2] - 1) * dilation + 1
    if padded_len < span:
        raise ValueError(f"input length {padded_len} shorter than receptive "
                         f"span {span}")
    return left, right, (padded_len - span) // stride + 1


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
           dilation: int = 1) -> Tensor:
    """1-D convolution (cross-correlation) over the last axis.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, length)``.
    weight:
        Filters of shape ``(out_channels, in_channels, kernel_size)``.
    bias:
        Optional per-output-channel bias ``(out_channels,)``.
    padding:
        Either a symmetric pad or an explicit ``(left, right)`` pair; causal
        convolution (§IV-C of the paper, WaveNet-style) uses
        ``(dilation * (kernel_size - 1), 0)``.

    Returns
    -------
    Tensor of shape ``(batch, out_channels, out_length)``.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    left, right, out_len = _conv1d_geometry(x.shape, weight.shape, padding,
                                            stride, dilation)
    if left or right:
        x = x.pad(((0, 0), (0, 0), (left, right)))
    windows = _extract_windows(x, out_len, weight.shape[2], stride, dilation)
    out = einsum("bilk,oik->bol", windows, weight)
    if bias is not None:
        out = out + ensure_tensor(bias).reshape(1, -1, 1)
    return out


def one_hot(indices: np.ndarray, num_classes: int) -> Tensor:
    """Return a constant one-hot tensor for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    eye = np.eye(num_classes)
    return Tensor(eye[indices])


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, the paper's τ_reg (Eq. 7) averaged over elements."""
    diff = ensure_tensor(prediction) - ensure_tensor(target)
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    return (ensure_tensor(prediction) - ensure_tensor(target)).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss used by the DQN baseline's temporal-difference updates."""
    diff = ensure_tensor(prediction) - ensure_tensor(target)
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear_part = delta * (abs_diff - 0.5 * delta)
    return where(abs_diff.data <= delta, quadratic, linear_part).mean()


def binary_cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """BCE-with-logits, numerically stable via the log-sum-exp identity."""
    logits = ensure_tensor(logits)
    targets = ensure_tensor(targets)
    # max(x, 0) - x*y + log(1 + exp(-|x|))
    positive = maximum(logits, Tensor(np.zeros_like(logits.data)))
    softplus = (1.0 + (-logits.abs()).exp()).log()
    return (positive - logits * targets + softplus).mean()


def cross_entropy(logits: Tensor, target_indices: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy from logits and integer labels."""
    logp = log_softmax(logits, axis=-1)
    targets = one_hot(np.asarray(target_indices), logits.shape[-1])
    return -(logp * targets).sum(axis=-1).mean()
