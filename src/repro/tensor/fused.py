"""Fused composite tape nodes with hand-written VJPs.

The autograd engine's per-node Python dispatch dominates small-op chains:
an LSTM cell alone records ~20 tape nodes per step.  Each fused op below
collapses one such chain (affine+activation, a full LSTM/GRU cell, GCN
propagation, the Eq. 6 temporal convolution, the Eq. 5 time-sensitive
adjacency, weight normalization, the Eq. 9 L2 penalty) into one or two
nodes with a closed-form backward, cutting tape length and intermediate
materialization on both dense and sparse graph modes.

Equivalence contract
--------------------
Every fused forward/backward replicates the *exact* NumPy expression
sequence of the composed ops it replaces (same operand layouts, same
association order, same numerically-stable sigmoid), so under the
``float64`` policy results are bitwise-identical with fusion on or off;
a VJP that feeds several parameters accumulates into each of them in the
order the composed tape would, and hands on arrays in the memory layout
the composed ops would (the arena-off ``materialize`` copy preserves
layout, and downstream reductions sum in memory order);
under ``float32`` they agree to rounding (see ``docs/performance.md``).
The gradcheck + per-policy equivalence suite in
``tests/tensor/test_fused_ops.py`` gates every op.

Fusion is process-globally switchable (:func:`set_fused_enabled`,
:func:`fused_kernels`); ``repro.nn`` layers consult the switch on every
forward so benchmarks can compare paths in one process.

Arena note: backward closures never retain their ``grad`` argument (the
buffer is recycled as soon as the closure returns); cross-node stashes
(LSTM's h→c hand-off) store freshly computed products instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from .ops import _conv1d_geometry, _tap_slices, conv1d
from .sparse import SparseTensor, _csr_matmul, _sampled_inner
from .tensor import (Tensor, _as_array, _sum_data, _unbroadcast,
                     ensure_tensor)

__all__ = [
    "set_fused_enabled", "fused_enabled", "fused_kernels",
    "affine_act_fused", "lstm_cell_fused", "gru_cell_fused",
    "gcn_propagate_fused", "conv1d_fused", "time_adjacency_fused",
    "weight_norm_fused", "l2_penalty_fused",
]

_enabled = True


def set_fused_enabled(enabled: bool = True) -> bool:
    """Globally enable/disable the fused kernels; returns the prior state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def fused_enabled() -> bool:
    """Whether layers currently route through the fused tape nodes."""
    return _enabled


@contextmanager
def fused_kernels(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping the fusion switch to a block."""
    previous = set_fused_enabled(enabled)
    try:
        yield
    finally:
        set_fused_enabled(previous)


# ----------------------------------------------------------------------
# shared scalar kernels (identical formulas to the Tensor methods)
# ----------------------------------------------------------------------
def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Must match Tensor.sigmoid bit for bit.
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(x, -500, 500))),
                    np.exp(np.clip(x, -500, 500))
                    / (1.0 + np.exp(np.clip(x, -500, 500))))


_ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid", "leaky_relu")


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return pre
    if activation == "relu":
        return pre * (pre > 0)
    if activation == "tanh":
        return np.tanh(pre)
    if activation == "sigmoid":
        return _sigmoid(pre)
    if activation == "leaky_relu":
        return np.where(pre > 0, pre, pre * 0.01)
    raise ValueError(f"unknown activation {activation!r}; expected one of "
                     f"{_ACTIVATIONS}")


def _activate_vjp(grad: np.ndarray, pre: np.ndarray, out: np.ndarray,
                  activation: str) -> np.ndarray:
    """d(loss)/d(pre) given d(loss)/d(out), matching the composed backwards."""
    if activation == "identity":
        return grad
    if activation == "relu":
        return grad * (pre > 0)
    if activation == "tanh":
        return grad * (1.0 - out ** 2)
    if activation == "sigmoid":
        return grad * out * (1.0 - out)
    if activation == "leaky_relu":
        return grad * np.where(pre > 0, 1.0, 0.01)
    raise ValueError(f"unknown activation {activation!r}")


def _weight_grad(inp: np.ndarray, dgrad: np.ndarray,
                 weight: Tensor) -> np.ndarray:
    """Gradient for a PyTorch-layout ``(out, in)`` weight of ``inp @ W.T``.

    Mirrors the composed path (matmul backward on the swapaxes view, then
    the swapaxes node's transpose): ``(inpᵀ @ dgrad)`` reduced over batch
    axes, transposed back to ``(out, in)``.
    """
    gt = np.swapaxes(inp, -1, -2) @ dgrad
    gt = _unbroadcast(gt, (weight.shape[1], weight.shape[0]))
    return np.swapaxes(gt, -1, -2)


# ----------------------------------------------------------------------
# fused affine + activation (Linear layers)
# ----------------------------------------------------------------------
def affine_act_fused(x: Tensor, weight: Tensor,
                     bias: Optional[Tensor] = None,
                     activation: str = "identity") -> Tensor:
    """``act(x @ weight.T + bias)`` as a single tape node.

    Replaces the matmul + swapaxes + add + activation chain of
    ``ops.linear`` composed with an activation (4-5 nodes → 1).
    """
    x = ensure_tensor(x)
    pre = x.data @ weight.data.swapaxes(-1, -2)
    if bias is not None:
        pre = pre + bias.data
    out_data = _activate(pre, activation)

    def backward(grad: np.ndarray) -> None:
        dpre = _activate_vjp(grad, pre, out_data, activation)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dpre @ weight.data, x.shape))
        if weight.requires_grad:
            weight._accumulate(_weight_grad(x.data, dpre, weight))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(dpre, bias.shape))

    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused LSTM cell
# ----------------------------------------------------------------------
def lstm_cell_fused(x: Tensor, h_prev: Tensor, c_prev: Tensor,
                    w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                    hidden_size: int) -> Tuple[Tensor, Tensor]:
    """One LSTM step ``(h, c)`` as two tape nodes instead of ~20.

    Gate order is ``i, f, g, o`` (matching :class:`repro.nn.LSTMCell`).
    The ``c`` node owns all six inputs; the ``h`` node depends only on
    ``c``.  ``h``'s backward runs first (reverse topological order),
    accumulates h's contribution into ``c``'s gradient through the normal
    engine path, and stashes the output-gate product for ``c``'s backward
    — a freshly computed array, never the (recyclable) grad buffer itself.
    """
    x = ensure_tensor(x)
    h_prev = ensure_tensor(h_prev)
    c_prev = ensure_tensor(c_prev)
    H = hidden_size
    gates = (x.data @ w_ih.data.swapaxes(-1, -2)
             + h_prev.data @ w_hh.data.swapaxes(-1, -2) + bias.data)
    i = _sigmoid(gates[..., 0 * H:1 * H])
    f = _sigmoid(gates[..., 1 * H:2 * H])
    g = np.tanh(gates[..., 2 * H:3 * H])
    o = _sigmoid(gates[..., 3 * H:4 * H])
    c_data = f * c_prev.data + i * g
    tanh_c = np.tanh(c_data)
    h_data = o * tanh_c

    ctx = {"grad_o": None}

    def backward_c(grad_c: np.ndarray) -> None:
        do = ctx["grad_o"]
        ctx["grad_o"] = None
        di = grad_c * g
        df = grad_c * c_prev.data
        dg = grad_c * i
        di_pre = di * i * (1.0 - i)
        df_pre = df * f * (1.0 - f)
        dg_pre = dg * (1.0 - g ** 2)
        do_pre = (do * o * (1.0 - o) if do is not None
                  else np.zeros_like(o))
        dgates = np.concatenate([di_pre, df_pre, dg_pre, do_pre], axis=-1)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dgates @ w_ih.data, x.shape))
        if h_prev.requires_grad:
            h_prev._accumulate(_unbroadcast(dgates @ w_hh.data, h_prev.shape))
        if c_prev.requires_grad:
            c_prev._accumulate(_unbroadcast(grad_c * f, c_prev.shape))
        if w_ih.requires_grad:
            w_ih._accumulate(_weight_grad(x.data, dgates, w_ih))
        if w_hh.requires_grad:
            w_hh._accumulate(_weight_grad(h_prev.data, dgates, w_hh))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(dgates, bias.shape))

    c = x._make_child(c_data, (x, h_prev, c_prev, w_ih, w_hh, bias),
                      backward_c)

    def backward_h(grad_h: np.ndarray) -> None:
        # h = o * tanh(c): route tanh's share into c's gradient through the
        # engine, keep the output-gate share for c's backward.
        dtanh = grad_h * o
        c._accumulate(dtanh * (1.0 - tanh_c ** 2))
        ctx["grad_o"] = grad_h * tanh_c

    h = c._make_child(h_data, (c,), backward_h)
    return h, c


# ----------------------------------------------------------------------
# fused GRU cell
# ----------------------------------------------------------------------
def gru_cell_fused(x: Tensor, h_prev: Tensor, w_ih: Tensor, w_hh: Tensor,
                   b_ih: Tensor, b_hh: Tensor, hidden_size: int) -> Tensor:
    """One GRU step as a single tape node (gate order ``r, z, n``)."""
    x = ensure_tensor(x)
    h_prev = ensure_tensor(h_prev)
    H = hidden_size
    gi = x.data @ w_ih.data.swapaxes(-1, -2) + b_ih.data
    gh = h_prev.data @ w_hh.data.swapaxes(-1, -2) + b_hh.data
    gh_n = gh[..., 2 * H:3 * H]
    r = _sigmoid(gi[..., 0 * H:1 * H] + gh[..., 0 * H:1 * H])
    z = _sigmoid(gi[..., 1 * H:2 * H] + gh[..., 1 * H:2 * H])
    n = np.tanh(gi[..., 2 * H:3 * H] + r * gh_n)
    out_data = (1.0 - z) * n + z * h_prev.data

    def backward(grad: np.ndarray) -> None:
        dz = grad * h_prev.data - grad * n
        dn = grad * (1.0 - z)
        dn_pre = dn * (1.0 - n ** 2)
        dr = dn_pre * gh_n
        dr_pre = dr * r * (1.0 - r)
        dz_pre = dz * z * (1.0 - z)
        dgi = np.concatenate([dr_pre, dz_pre, dn_pre], axis=-1)
        dgh = np.concatenate([dr_pre, dz_pre, dn_pre * r], axis=-1)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dgi @ w_ih.data, x.shape))
        if h_prev.requires_grad:
            h_prev._accumulate(_unbroadcast(
                dgh @ w_hh.data + grad * z, h_prev.shape))
        if w_ih.requires_grad:
            w_ih._accumulate(_weight_grad(x.data, dgi, w_ih))
        if w_hh.requires_grad:
            w_hh._accumulate(_weight_grad(h_prev.data, dgh, w_hh))
        if b_ih.requires_grad:
            b_ih._accumulate(_unbroadcast(dgi, b_ih.shape))
        if b_hh.requires_grad:
            b_hh._accumulate(_unbroadcast(dgh, b_hh.shape))

    return x._make_child(out_data, (x, h_prev, w_ih, w_hh, b_ih, b_hh),
                         backward)


# ----------------------------------------------------------------------
# fused GCN propagation
# ----------------------------------------------------------------------
def gcn_propagate_fused(x: Tensor, adj, weight: Tensor,
                        bias: Optional[Tensor] = None,
                        activation: str = "identity") -> Tensor:
    """``act(Â (x Θᵀ) + b)`` as one tape node for dense *and* sparse ``Â``.

    Replaces the linear + (spmm|matmul) + bias-add (+ activation) chain of
    :class:`repro.nn.GraphConv`.  A dense adjacency may itself require
    grad (the time-sensitive strategy's per-step stacks); a sparse
    adjacency contributes through its value vector, with the value
    gradient computed as a sampled inner product so no dense ``(N, N)``
    gradient ever materializes.
    """
    x = ensure_tensor(x)
    support = x.data @ weight.data.swapaxes(-1, -2)
    if isinstance(adj, SparseTensor):
        pattern, values = adj.pattern, adj.values
        pre = _csr_matmul(pattern, values.data, support)
        if bias is not None:
            pre = pre + bias.data
        out_data = _activate(pre, activation)

        def backward(grad: np.ndarray) -> None:
            dpre = _activate_vjp(grad, pre, out_data, activation)
            if x.requires_grad or weight.requires_grad:
                dsupport = _csr_matmul(pattern, values.data, dpre,
                                       transpose=True)
                dsupport = _unbroadcast(dsupport, support.shape)
                if x.requires_grad:
                    x._accumulate(_unbroadcast(dsupport @ weight.data,
                                               x.shape))
                if weight.requires_grad:
                    weight._accumulate(_weight_grad(x.data, dsupport, weight))
            if values.requires_grad:
                grad_values = _sampled_inner(pattern, dpre, support)
                values._accumulate(_unbroadcast(grad_values, values.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dpre, bias.shape))

        parents: Tuple[Tensor, ...] = (x, weight, values)
    else:
        adj = ensure_tensor(adj)
        pre = adj.data @ support
        if bias is not None:
            pre = pre + bias.data
        out_data = _activate(pre, activation)

        def backward(grad: np.ndarray) -> None:
            dpre = _activate_vjp(grad, pre, out_data, activation)
            if x.requires_grad or weight.requires_grad:
                dsupport = _unbroadcast(
                    np.swapaxes(adj.data, -1, -2) @ dpre, support.shape)
                if x.requires_grad:
                    x._accumulate(_unbroadcast(dsupport @ weight.data,
                                               x.shape))
                if weight.requires_grad:
                    weight._accumulate(_weight_grad(x.data, dsupport, weight))
            if adj.requires_grad:
                adj._accumulate(_unbroadcast(
                    dpre @ np.swapaxes(support, -1, -2), adj.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dpre, bias.shape))

        parents = (x, weight, adj)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused temporal convolution (Eq. 6)
# ----------------------------------------------------------------------
def conv1d_fused(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                 stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
                 dilation: int = 1) -> Tensor:
    """``ops.conv1d`` as one im2col GEMM tape node.

    Replaces the composed pad → window gather → ``einsum("bilk,oik->bol")``
    → bias reshape → add chain (5 nodes → 1).  The forward gathers the
    ``k`` taps into one ``cols`` buffer ``(C·k, B·L)`` and computes
    ``W(O, C·k) @ cols``; the backward is ``dW = cols @ g(B·L, O)``,
    ``dcols = Wᵀ(C·k, O) @ g(O, B·L)`` plus a col2im scatter.  Both the
    tap gather and the scatter work on a zero-edged ``(C, B, L+pad)``
    buffer, so every tap is a contiguous run along the time axis.

    These are the operand orientations NumPy's ``einsum(optimize=True)``
    lowers the forward and both VJP contractions to, and the output (and
    ``dW``) are returned as the same transposed views of the GEMM result.
    Memory order is part of the equivalence contract: downstream
    reductions (the bias gradient, the weight-norm backward) sum in memory
    order, so the same values in another layout can round differently — a
    C-contiguous ``dW`` alone changes the final loss of a 1100-step
    nasdaq-mini fit.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    left, right, out_len = _conv1d_geometry(x.shape, weight.shape, padding,
                                            stride, dilation)
    out_ch, in_ch, k = weight.shape
    batch = x.shape[0]
    if batch == 1 or in_ch * k == 1:
        # Degenerate shapes where NumPy's einsum lowering departs from the
        # GEMMs below: with no summed index it broadcast-multiplies, and a
        # singleton batch lets it hand BLAS strided views of the gathered
        # windows instead of packed copies.  Either changes the result's
        # bits or layout, so keep the composed path for them.
        return conv1d(x, weight, bias, stride=stride, padding=padding,
                      dilation=dilation)
    length = x.shape[2]
    padded_len = left + length + right
    # One zero-edged (C, B, L+pad) copy of the input; the taps are
    # contiguous row slices of it.
    by_channel = np.empty((in_ch, batch, padded_len), dtype=x.data.dtype)
    by_channel[:, :, :left] = 0.0
    by_channel[:, :, left + length:] = 0.0
    by_channel[:, :, left:left + length] = x.data.transpose(1, 0, 2)
    taps = _tap_slices(out_len, k, stride, dilation)
    cols = np.empty((in_ch, k, batch, out_len), dtype=x.data.dtype)
    for j, tap in enumerate(taps):
        cols[:, j] = by_channel[:, :, tap]
    cols = cols.reshape(in_ch * k, batch * out_len)
    out_data = (weight.data.reshape(out_ch, in_ch * k) @ cols).reshape(
        out_ch, batch, out_len).transpose(1, 0, 2)
    if bias is not None:
        bias = ensure_tensor(bias)
        out_data = out_data + bias.data.reshape(1, -1, 1)

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            g_rows = grad.transpose(0, 2, 1).reshape(batch * out_len, out_ch)
            dw = (cols @ g_rows).reshape(in_ch, k, out_ch)
            weight._accumulate(dw.transpose(2, 0, 1))
        if x.requires_grad:
            w_cols = weight.data.transpose(1, 2, 0).reshape(in_ch * k, out_ch)
            g_cols = grad.transpose(1, 0, 2).reshape(out_ch, batch * out_len)
            dcols = (w_cols @ g_cols).reshape(in_ch, k, batch, out_len)
            # col2im in the GEMM's (C, B, L) layout, then one transposing
            # copy: the composed path hands x a C-contiguous (B, C, L)
            # gradient, and layout carries into later reductions.
            full = np.zeros((in_ch, batch, padded_len), dtype=x.data.dtype)
            for j, tap in enumerate(taps):
                full[:, :, tap] += dcols[:, j]
            x._accumulate(np.ascontiguousarray(
                full[:, :, left:left + length].transpose(1, 0, 2)))
        if bias is not None and bias.requires_grad:
            bias._accumulate(
                _unbroadcast(grad, (1, out_ch, 1)).reshape(bias.shape))

    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused time-sensitive adjacency (Eq. 5, dense)
# ----------------------------------------------------------------------
def time_adjacency_fused(features: Tensor, relations: Tensor, mask: Tensor,
                         weight: Tensor, bias: Tensor,
                         eps: float = 1e-8) -> Tensor:
    """Eq. (5)'s normalized ``(T, N, N)`` adjacency stack as one tape node.

    Replaces the composed chain of the time-sensitive strategy's dense
    path (14 nodes): the correlation ``X Xᵀ / √D``, the relation
    importance ``(𝓐w + b)⊙M``, the second ``⊙M``, and
    ``normalize_weighted_adjacency`` (``Ã = A + I``, ``D̃ = Σ|Ã| + eps``,
    ``D̃^-½ Ã D̃^-½``).  The node's parents are ``(weight, bias)``; the
    features must not require grad (their gradient would interleave with
    the GCN's and the skip path's contributions, so callers keep the
    composed path for them).  Only the arrays the VJP reads are kept.
    """
    features = ensure_tensor(features)
    if features.requires_grad:
        raise ValueError("time_adjacency_fused does not differentiate the "
                         "features; use the composed path when they "
                         "require grad")
    feats = features.data
    rel, msk = relations.data, mask.data
    corr = (feats @ feats.swapaxes(-1, -2)) * _as_array(feats.shape[2]
                                                        ** -0.5)
    scores = np.einsum("ijk,k->ij", rel, weight.data, optimize=True)
    matrix = (corr * ((scores + bias.data) * msk) * msk
              + _as_array(np.eye(feats.shape[1])))
    degrees = _sum_data(np.abs(matrix), axis=-1) + _as_array(eps)
    inv_sqrt = degrees ** -0.5
    rows = np.expand_dims(inv_sqrt, -1)
    cols = np.expand_dims(inv_sqrt, -2)
    row_scaled = matrix * rows
    out_data = row_scaled * cols

    def backward(grad: np.ndarray) -> None:
        # The composed backward's expressions, in its reverse topological
        # order: out = row_scaled·cols, row_scaled = matrix·rows, then the
        # degree chain, whose |Ã| term reaches `matrix` second.
        g_row_scaled = grad * cols
        g_cols = _unbroadcast(grad * row_scaled, cols.shape)
        g_matrix = g_row_scaled * rows
        g_inv = _unbroadcast(g_row_scaled * matrix,
                             rows.shape).reshape(inv_sqrt.shape)
        np.add(g_inv, g_cols.reshape(inv_sqrt.shape), out=g_inv)
        exponent = -0.5
        g_degrees = g_inv * exponent * degrees ** (exponent - 1)
        np.add(g_matrix, np.expand_dims(g_degrees, -1) * np.sign(matrix),
               out=g_matrix)
        g_importance = _unbroadcast(g_matrix * msk * corr, msk.shape)
        g_scores = g_importance * msk
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g_scores, bias.shape))
        if weight.requires_grad:
            weight._accumulate(np.einsum("ij,ijk->k", g_scores, rel,
                                         optimize=True))

    return weight._make_child(out_data, (weight, bias), backward)


# ----------------------------------------------------------------------
# fused weight normalization
# ----------------------------------------------------------------------
def weight_norm_fused(g: Tensor, v: Tensor, eps: float = 1e-12) -> Tensor:
    """``g · v / (‖v‖ + eps)`` (Salimans & Kingma) as one tape node.

    The norm runs over every axis but the first (one per output filter).
    Replaces the composed mul → sum → sqrt → add → mul → div chain
    (6 nodes → 1).  ``v`` accumulates in the composed order: the ``g·v``
    term first, then the two ``v·v`` terms of the norm.
    """
    axes = tuple(range(1, v.ndim))
    norm = np.sqrt(_sum_data(v.data * v.data, axis=axes, keepdims=True))
    denom = norm + _as_array(eps)
    scaled = g.data * v.data
    out_data = scaled / denom

    def backward(grad: np.ndarray) -> None:
        g_scaled = grad / denom
        g_denom = _unbroadcast(-grad * scaled / (denom ** 2), denom.shape)
        if g.requires_grad:
            g._accumulate(_unbroadcast(g_scaled * v.data, g.shape))
        if v.requires_grad:
            v._accumulate(_unbroadcast(g_scaled * g.data, v.shape))
            g_square = g_denom * 0.5 / norm * v.data
            v._accumulate(g_square)
            v._accumulate(g_square)

    return v._make_child(out_data, (g, v), backward)


# ----------------------------------------------------------------------
# fused L2 penalty (Eq. 9)
# ----------------------------------------------------------------------
def l2_penalty_fused(parameters: Iterable[Tensor]) -> Tensor:
    """``Σ_p Σ p²`` over every parameter as one tape node.

    Replaces the composed per-parameter mul → sum → add chain (3 nodes per
    parameter).  The sums and the running total are the composed ones
    (wide accumulation under the mixed policy, as :meth:`Tensor.sum`), and
    each parameter receives ``grad·p`` twice, as from ``p * p``.
    """
    params = list(parameters)
    if not params:
        raise ValueError("no parameters supplied to l2_penalty")
    total = None
    for param in params:
        term = _sum_data(param.data * param.data)
        total = term if total is None else total + term

    def backward(grad: np.ndarray) -> None:
        for param in params:
            if param.requires_grad:
                contribution = grad * param.data
                param._accumulate(contribution)
                param._accumulate(contribution)

    return params[0]._make_child(total, tuple(params), backward)
