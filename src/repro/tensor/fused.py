"""Fused composite tape nodes with hand-written VJPs.

The autograd engine's per-node Python dispatch dominates small-op chains:
an LSTM cell alone records ~20 tape nodes per step.  Each fused op below
collapses one such chain (affine+activation, a full LSTM/GRU cell, a
whole LSTM layer over its sequence, GCN propagation, the Eq. 6 temporal
convolution, the Eq. 5 time-sensitive adjacency, weight normalization,
the Eq. 9 L2 penalty) into one or two nodes with a closed-form backward,
cutting tape length and intermediate materialization on both dense and
sparse graph modes.

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
store freshly computed products (the LSTM cell's h→c hand-off) or, with
the arena on, a copy (the LSTM layer's ``outputs``/``c`` handles).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .arena import arena_enabled
from .grad_mode import is_grad_enabled
from .ops import _conv1d_geometry, conv1d
from .sparse import SparseTensor, _csr_matmul, _sampled_inner
from .tensor import (Tensor, _as_array, _sigmoid, _sum_data, _unbroadcast,
                     ensure_tensor)

__all__ = [
    "set_fused_enabled", "fused_enabled", "fused_kernels",
    "affine_act_fused", "lstm_cell_fused", "lstm_layer_fused",
    "gru_cell_fused", "gcn_propagate_fused", "conv1d_fused",
    "time_adjacency_fused", "weight_norm_fused", "l2_penalty_fused",
    "conv1d_fusable", "temporal_block_fused", "rank_loss_fused",
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
# fused LSTM: one step's arithmetic, one cell, one whole layer
# ----------------------------------------------------------------------
def _gate_major(array: np.ndarray) -> np.ndarray:
    """The ``(..., 4, H)`` view of ``(..., 4H)``, as ``(4, ..., H)``."""
    split = array.reshape(array.shape[:-1] + (4, -1))
    return np.moveaxis(split, -2, 0)


def _lstm_step(gates: np.ndarray, c_prev: np.ndarray, hidden_size: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step from its pre-activations ``gates`` ``(..., 4H)``.

    Returns ``(acts, c, tanh_c, h)``.  ``acts`` is gate-major
    ``(4, ..., H)`` and holds ``i, f, tanh(g), o``: one sigmoid over all
    4H gates, then ``tanh(g)`` written over the g slot, so a step keeps
    4H activations and every gate is contiguous for the arithmetic that
    follows.
    """
    H = hidden_size
    acts = np.empty((4,) + gates.shape[:-1] + (H,), gates.dtype)
    _sigmoid(gates.reshape(gates.shape[:-1] + (4, H)),
             out=np.moveaxis(acts, 0, -2))
    i, f, g, o = acts
    np.tanh(gates[..., 2 * H:3 * H], out=g)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    return acts, c, tanh_c, o * tanh_c


def _lstm_h_vjp(grad_h: np.ndarray, acts: np.ndarray, tanh_c: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
    """``h = o·tanh(c)`` in reverse: the gradient's shares for ``c``, ``o``."""
    return (grad_h * acts[3]) * (1.0 - tanh_c ** 2), grad_h * tanh_c


def _lstm_gates_vjp(grad_c: np.ndarray, grad_o: Optional[np.ndarray],
                    acts: np.ndarray, c_prev: np.ndarray,
                    scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``c = f·c_prev + i·g`` and the gate activations in reverse.

    Writes the pre-activation gradient into ``out`` ``(..., 4H)``, with a
    zero o slot when ``grad_o`` is ``None`` (``h`` received no gradient),
    and returns ``c_prev``'s gradient.  ``scratch`` is a gate-major
    buffer like ``acts``.  Per slot the products associate as the
    composed cell's do: ``((dc·g)·i)·(1-i)``, ``((dc·c_prev)·f)·(1-f)``,
    ``(dc·i)·(1-g²)`` and ``(do·o)·(1-o)``; the shared factors run as one
    pass over two or four gates.
    """
    i, f, g, o = acts
    np.multiply(grad_c, g, out=scratch[0])
    np.multiply(grad_c, c_prev, out=scratch[1])
    scratch[:2] *= acts[:2]
    np.multiply(grad_c, i, out=scratch[2])
    if grad_o is None:
        scratch[3] = 0.0
    else:
        np.multiply(grad_o, o, out=scratch[3])
    slope = 1.0 - acts
    np.subtract(1.0, g ** 2, out=slope[2])
    np.multiply(scratch, slope, out=_gate_major(out))
    return grad_c * f


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
    acts, c_data, tanh_c, h_data = _lstm_step(gates, c_prev.data, H)
    ctx = {"grad_o": None}

    def backward_c(grad_c: np.ndarray) -> None:
        grad_o = ctx["grad_o"]
        ctx["grad_o"] = None
        dtype = np.result_type(grad_c, acts)
        dgates = np.empty(acts.shape[1:-1] + (4 * H,), dtype)
        dc_prev = _lstm_gates_vjp(grad_c, grad_o, acts, c_prev.data,
                                  np.empty(acts.shape, dtype), dgates)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dgates @ w_ih.data, x.shape))
        if h_prev.requires_grad:
            h_prev._accumulate(_unbroadcast(dgates @ w_hh.data, h_prev.shape))
        if c_prev.requires_grad:
            c_prev._accumulate(_unbroadcast(dc_prev, c_prev.shape))
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
        dc, ctx["grad_o"] = _lstm_h_vjp(grad_h, acts, tanh_c)
        c._accumulate(dc)

    h = c._make_child(h_data, (c,), backward_h)
    return h, c


def _running_sum(total: Optional[np.ndarray],
                 term: np.ndarray) -> np.ndarray:
    """``total + term`` in place, the way repeated ``_accumulate`` adds."""
    if total is None:
        return term
    np.add(total, term, out=total)
    return total


def _stashed(grad: np.ndarray) -> np.ndarray:
    """A gradient a backward keeps past its own return.

    With the buffer arena on, the engine recycles ``grad`` as soon as the
    closure returns; without it, ``grad`` is the node's own copy.
    """
    return grad.copy() if arena_enabled() else grad


def lstm_layer_fused(x: Tensor, h0: Tensor, c0: Tensor, w_ih: Tensor,
                     w_hh: Tensor, bias: Tensor, hidden_size: int
                     ) -> Tuple[Tensor, Tensor, Tensor]:
    """A whole LSTM layer over ``(B, T, D)`` input as one tape node.

    Returns ``(outputs, h, c)``: the hidden state of every step
    ``(B, T, H)`` and the final ``h`` and ``c``.  The recurrence node owns
    the six inputs and holds ``h``.  ``outputs`` and ``c`` are handles on
    it whose backward only hands their gradient over, so gradient reaches
    the layer through whichever of the three a caller uses.

    The forward is :func:`lstm_cell_fused`'s arithmetic looped over T on
    plain arrays; the VJP is one reverse-time loop of the cell's VJP.
    Parameter gradients reach ``_accumulate`` as they do on the composed
    path (:meth:`repro.nn.LSTM.forward` with fusion off): each weight's
    once, summed over the steps in reverse time (its transpose is one node
    per sequence there), the bias's once per step (one add node per step
    there).  So another term on a parameter, such as an L2 penalty's,
    lands in the same place in every sum whether its backward runs before
    the layer's or after.  Each step keeps its 4H activations and
    ``c_prev``/``tanh(c)``; nothing is kept when no gradient will be
    taken.
    """
    x = ensure_tensor(x)
    h0 = ensure_tensor(h0)
    c0 = ensure_tensor(c0)
    if x.ndim != 3:
        raise ValueError(f"LSTM expects (B, T, D) input, got {x.shape}")
    H = hidden_size
    steps = x.shape[1]
    parents = (x, h0, c0, w_ih, w_hh, bias)
    save = is_grad_enabled() and any(t.requires_grad for t in parents)
    w_ih_t = w_ih.data.swapaxes(-1, -2)
    w_hh_t = w_hh.data.swapaxes(-1, -2)
    h_data, c_data = h0.data, c0.data
    hs: List[np.ndarray] = []
    acts_seq: List[np.ndarray] = []
    c_prev_seq: List[np.ndarray] = []
    tanh_c_seq: List[np.ndarray] = []
    for t in range(steps):
        gates = x.data[:, t, :] @ w_ih_t + h_data @ w_hh_t + bias.data
        acts, c_next, tanh_c, h_data = _lstm_step(gates, c_data, H)
        if save:
            acts_seq.append(acts)
            c_prev_seq.append(c_data)
            tanh_c_seq.append(tanh_c)
        hs.append(h_data)
        c_data = c_next
    outputs_data = np.stack(hs, axis=1)
    del hs[:-1]
    ctx: dict = {"outputs": None, "c": None}

    def backward(grad_h: np.ndarray) -> None:
        d_out, grad_c = ctx["outputs"], ctx["c"]
        ctx["outputs"] = ctx["c"] = None
        dtype = np.result_type(grad_h, acts_seq[0])
        scratch = np.empty(acts_seq[0].shape, dtype)
        dgates = np.empty(grad_h.shape[:-1] + (4 * H,), dtype)
        dx = np.empty_like(x.data) if x.requires_grad else None
        # Weight gradients summed in the (in, 4H) layout, as the composed
        # path's once-per-sequence transposes hold them.
        dw_ih = dw_hh = None
        dh = grad_h
        for t in reversed(range(steps)):
            if t < steps - 1:
                dh = dh_carry if d_out is None else d_out[:, t, :] + dh_carry
            dc_h, grad_o = _lstm_h_vjp(dh, acts_seq[t], tanh_c_seq[t])
            grad_c = dc_h if grad_c is None else grad_c + dc_h
            grad_c = _lstm_gates_vjp(grad_c, grad_o, acts_seq[t],
                                     c_prev_seq[t], scratch, dgates)
            x_t = x.data[:, t, :]
            # The previous step's h as the per-step cell held it: its own
            # contiguous array, not a strided view of the stacked outputs.
            h_prev = (np.ascontiguousarray(outputs_data[:, t - 1, :]) if t
                      else h0.data)
            if dx is not None:
                dx[:, t, :] = dgates @ w_ih.data
            if t or h0.requires_grad:
                dh_carry = dgates @ w_hh.data
            if w_ih.requires_grad:
                dw_ih = _running_sum(dw_ih, x_t.T @ dgates)
            if w_hh.requires_grad:
                dw_hh = _running_sum(dw_hh, h_prev.T @ dgates)
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(dgates, bias.shape))
        for weight, total in ((w_ih, dw_ih), (w_hh, dw_hh)):
            if total is not None:
                weight._accumulate(total.T)
        if h0.requires_grad:
            h0._accumulate(dh_carry)
        if c0.requires_grad:
            c0._accumulate(grad_c)
        if dx is not None:
            x._accumulate(dx)

    h = x._make_child(hs[-1], parents, backward)

    def backward_outputs(grad: np.ndarray) -> None:
        ctx["outputs"] = _stashed(grad)
        h._accumulate(grad[:, -1, :])

    def backward_c(grad: np.ndarray) -> None:
        ctx["c"] = _stashed(grad)
        if h.grad is None:
            # Only c is used: h's backward still has to run.
            h._accumulate(np.zeros_like(h.data))

    outputs = h._make_child(outputs_data, (h,), backward_outputs)
    c = h._make_child(c_data, (h,), backward_c)
    return outputs, h, c


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
    rz = _sigmoid(gi[..., :2 * H] + gh[..., :2 * H])
    r, z = rz[..., :H], rz[..., H:]
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
            # The composed tape's order (z·h before h Wᵀ), so a step
            # output's gradient already in h_prev rounds the same.
            h_prev._accumulate(_unbroadcast(grad * z, h_prev.shape))
            h_prev._accumulate(_unbroadcast(dgh @ w_hh.data, h_prev.shape))
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
                        activation: str = "identity",
                        skip_weight: Optional[Tensor] = None) -> Tensor:
    """``act(Â (x Θᵀ) + b + x Sᵀ)`` as one tape node for dense *and*
    sparse ``Â``.

    Replaces the linear + (spmm|matmul) + bias-add (+ activation) chain of
    :class:`repro.nn.GraphConv`; with ``skip_weight`` also the linear skip
    path and its add, so the Eq. 2 layer of
    :class:`repro.core.RelationalGraphConvolution` (propagation, skip and
    ReLU) is one node.  The sums run in the composed order,
    ``(Â(xΘᵀ) + b) + xSᵀ``.  A dense adjacency may itself require grad
    (the time-sensitive strategy's per-step stacks); a sparse adjacency
    contributes through its value vector, with the value gradient
    computed as a sampled inner product so no dense ``(N, N)`` gradient
    ever materializes.
    """
    x = ensure_tensor(x)
    support = x.data @ weight.data.swapaxes(-1, -2)
    sparse = isinstance(adj, SparseTensor)
    if sparse:
        pattern, values = adj.pattern, adj.values
        pre = _csr_matmul(pattern, values.data, support)
    else:
        adj = ensure_tensor(adj)
        pre = adj.data @ support
    if bias is not None:
        pre = pre + bias.data
    if skip_weight is not None:
        pre = pre + x.data @ skip_weight.data.swapaxes(-1, -2)
    if activation == "relu":
        # ReLU's factor [pre > 0] as a float: the VJP's g·live is then a
        # float product, and the same values as g·[pre > 0].
        live = (pre > 0).astype(pre.dtype)
        out_data = pre * live
    else:
        out_data = _activate(pre, activation)

    def backward(grad: np.ndarray) -> None:
        if activation == "relu":
            dpre = grad * live
        else:
            dpre = _activate_vjp(grad, pre, out_data, activation)
        if x.requires_grad or weight.requires_grad:
            if sparse:
                dsupport = _csr_matmul(pattern, values.data, dpre,
                                       transpose=True)
            else:
                dsupport = np.swapaxes(adj.data, -1, -2) @ dpre
            dsupport = _unbroadcast(dsupport, support.shape)
            if x.requires_grad:
                x._accumulate(_unbroadcast(dsupport @ weight.data, x.shape))
            if weight.requires_grad:
                weight._accumulate(_weight_grad(x.data, dsupport, weight))
        if sparse:
            if values.requires_grad:
                grad_values = _sampled_inner(pattern, dpre, support)
                values._accumulate(_unbroadcast(grad_values, values.shape))
        elif adj.requires_grad:
            adj._accumulate(_unbroadcast(
                dpre @ np.swapaxes(support, -1, -2), adj.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(dpre, bias.shape))
        if skip_weight is not None:
            # The skip path's share of x comes after the propagation's.
            if x.requires_grad:
                x._accumulate(_unbroadcast(dpre @ skip_weight.data, x.shape))
            if skip_weight.requires_grad:
                skip_weight._accumulate(_weight_grad(x.data, dpre,
                                                     skip_weight))

    parents: Tuple[Tensor, ...] = (x, weight, values if sparse else adj)
    parents += tuple(t for t in (bias, skip_weight) if t is not None)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused temporal convolution (Eq. 6)
# ----------------------------------------------------------------------
def conv1d_fusable(batch: int, in_channels: int, kernel_size: int) -> bool:
    """Whether the im2col GEMM reproduces the composed conv1d bit for bit.

    Not for a singleton batch, nor for a 1×1 conv over one channel: with
    no summed index NumPy's einsum lowering broadcast-multiplies, and a
    singleton batch lets it hand BLAS strided views of the gathered
    windows instead of packed copies.  Either changes the result's bits
    or layout, so those shapes keep the composed path.
    """
    return batch > 1 and in_channels * kernel_size > 1


def _tap_runs(out_len: int, length: int, left: int, kernel: int,
              stride: int, dilation: int) -> List[Tuple[int, int, slice]]:
    """Per kernel tap, the output positions ``[i0, i1)`` that read the
    unpadded input (the rest read zero padding) and the input slice
    they read."""
    runs = []
    for j in range(kernel):
        offset = j * dilation - left          # input index of output 0
        i0 = min(max(0, -(offset // stride)), out_len)
        i1 = max(min(out_len, (length - 1 - offset) // stride + 1), i0)
        t0 = offset + stride * i0
        runs.append((i0, i1, slice(t0, t0 + stride * (i1 - i0), stride)))
    return runs


def _causal_shifts(runs: List[Tuple[int, int, slice]], out_len: int,
                   length: int) -> Optional[List[int]]:
    """Per tap, how far it shifts the input right, when every tap is a
    pure right shift (stride 1, left padding only: the causal conv);
    else ``None``."""
    if out_len != length or any(
            i1 != out_len or src.start != 0 or src.step != 1
            for _, i1, src in runs):
        return None
    return [i0 for i0, _, _ in runs]


@lru_cache(maxsize=64)
def _im2col_plan(x_shape: Tuple[int, ...], w_shape: Tuple[int, ...],
                 stride: int, padding: Union[int, Tuple[int, int]],
                 dilation: int):
    """``(out_len, runs, shifts)`` of one conv geometry, validated once per
    shape (the same few shapes recur every step)."""
    left, _, out_len = _conv1d_geometry(x_shape, w_shape, padding, stride,
                                        dilation)
    runs = tuple(_tap_runs(out_len, x_shape[2], left, w_shape[2], stride,
                           dilation))
    shifts = _causal_shifts(runs, out_len, x_shape[2])
    return out_len, runs, None if shifts is None else tuple(shifts)


class _Im2col:
    """One im2col conv over a ``(C, B, L)`` input: its taps, its GEMMs and
    their VJP.

    ``cols`` is the ``(C, k, B, L_out)`` tap buffer, zero where a tap reads
    padding; the forward is ``W(O, C·k) @ cols(C·k, B·L_out)``, a
    C-contiguous ``(O, B·L_out)`` array, and the VJP reads the output
    gradient in that layout.  These are the operand orientations NumPy's
    ``einsum(optimize=True)`` lowers the composed conv's contractions to.
    """

    def __init__(self, x_shape: Tuple[int, ...], w_shape: Tuple[int, ...],
                 stride: int, padding: Union[int, Tuple[int, int]],
                 dilation: int, dtype) -> None:
        batch, in_ch, self.length = x_shape
        self.out_len, self.runs, self.shifts = _im2col_plan(
            tuple(x_shape), tuple(w_shape), stride,
            padding if isinstance(padding, int) else tuple(padding),
            dilation)
        self.cols = np.empty((in_ch, w_shape[2], batch, self.out_len),
                             dtype=dtype)

    def unshifted_tap(self) -> Optional[np.ndarray]:
        """The ``(C, B, L)`` tap that holds the input itself (a causal
        conv's last), or ``None`` when the taps are not shifts."""
        if self.shifts is None:
            return None
        return self.cols[:, self.shifts.index(0)]

    def gather(self, by_channel: Optional[np.ndarray]) -> None:
        """Fill the taps from the ``(C, B, L)`` input, in any memory
        order; ``None`` when it is already in :meth:`unshifted_tap`.

        A causal conv's taps are the input shifted right along the
        flattened (B, L) axis: each is one long copy of the unshifted
        tap, with the heads the shift carried over from the previous
        series zeroed.  Other convs gather each tap's input slice.
        """
        cols = self.cols
        if self.shifts is None:
            if by_channel.strides[2] != by_channel.itemsize:
                # One transposing copy beats k gathers along a strided
                # time axis.
                by_channel = np.ascontiguousarray(by_channel)
            for j, (i0, i1, src) in enumerate(self.runs):
                cols[:, j, :, :i0] = 0.0
                cols[:, j, :, i0:i1] = by_channel[:, :, src]
                cols[:, j, :, i1:] = 0.0
            return
        in_ch, _, batch, out_len = cols.shape
        span = batch * out_len
        base = self.unshifted_tap()
        if by_channel is not None:
            base[...] = by_channel
        flat = base.reshape(in_ch, span)
        for j, shift in enumerate(self.shifts):
            if shift:
                cols[:, j].reshape(in_ch, span)[:, shift:] = \
                    flat[:, :span - shift]
                cols[:, j, :, :shift] = 0.0

    def forward(self, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
        """``W @ cols`` with the bias added in place: ``(O, B·L_out)``."""
        in_ch, k, batch, out_len = self.cols.shape
        out = w.reshape(w.shape[0], in_ch * k) @ self.cols.reshape(
            in_ch * k, batch * out_len)
        if b is not None:
            out += b.reshape(-1, 1)
        return out

    def vjp(self, g: np.ndarray, w: np.ndarray, need_w: bool,
            need_x: bool) -> Tuple[Optional[np.ndarray],
                                   Optional[np.ndarray]]:
        """``(dW, dx)`` from the C-contiguous ``(O, B·L_out)`` output
        gradient (``None`` where unneeded).

        ``dW = cols @ gᵀ`` over a C-contiguous ``(B·L_out, O)`` copy of
        ``gᵀ``, returned as the ``(O, C, k)`` view of the ``(C, k, O)``
        product; ``dx`` is ``dcols = Wᵀ(C·k, O) @ g`` scattered back onto
        the input by :meth:`col2im`.
        """
        out_ch, in_ch, k = w.shape
        dw = dx = None
        if need_w:
            dw = (self.cols.reshape(in_ch * k, -1)
                  @ np.ascontiguousarray(g.T)).reshape(
                      in_ch, k, out_ch).transpose(2, 0, 1)
        if need_x:
            w_cols = w.transpose(1, 2, 0).reshape(in_ch * k, out_ch)
            dx = self.col2im((w_cols @ g).reshape(self.cols.shape))
        return dw, dx

    def col2im(self, dcols: np.ndarray) -> np.ndarray:
        """Each input position's sum of its taps' ``(C, k, B, L_out)``
        gradient shares, in tap order from zero as the composed scatter
        adds them: a C-contiguous ``(C, B·L)`` array.

        For a causal conv every share is a tap shifted along the
        flattened (B, L) axis, and the entries it carries over from the
        next series (the gradients of padding reads) count as +0.0.  Each
        tap is added as one long contiguous pass over a copy with those
        entries zeroed, the first onto an explicit zero, so a -0.0 share
        sums to +0.0 exactly as in the composed scatter.
        """
        in_ch, _, batch, out_len = dcols.shape
        length = self.length
        if self.shifts is None:
            dx = np.zeros((in_ch, batch, length), dtype=dcols.dtype)
            for j, (i0, i1, src) in enumerate(self.runs):
                dx[:, :, src] += dcols[:, j, :, i0:i1]
            return dx.reshape(in_ch, batch * length)
        span = batch * length
        dx = np.empty((in_ch, span), dtype=dcols.dtype)
        share = np.empty_like(dx)
        for j, shift in enumerate(self.shifts):
            tap = dcols[:, j].reshape(in_ch, span)
            if shift:
                share[:, :span - shift] = tap[:, shift:]
                share.reshape(in_ch, batch, length)[:, :, length - shift:] \
                    = 0.0
                tap = share
            np.add(dx if j else 0.0, tap, out=dx)
        return dx


def _channel_sums(g: np.ndarray, batch: int) -> np.ndarray:
    """Per-channel sums of an ``(O, B·L)`` conv output gradient, as the
    composed bias VJP sums the C-contiguous ``(B, O, L)`` array over
    axes 0 and 2.

    NumPy sums that array one (series, channel) run over ``L`` at a time
    and adds the runs to each channel's total series by series; the same
    runs, summed along the rows of the ``(O, B, L)`` layout, then added
    down a C-contiguous ``(B, O)`` copy, are those sums to the bit.  A
    singleton axis lets NumPy merge the reduced axes into one run, so
    those shapes reduce the ``(B, O, L)`` copy itself.
    """
    out_ch = g.shape[0]
    by_series = g.reshape(out_ch, batch, -1)
    if 1 in by_series.shape:
        return np.ascontiguousarray(by_series.transpose(1, 0, 2)).sum(
            axis=(0, 2))
    return np.ascontiguousarray(by_series.sum(axis=2).T).sum(axis=0)


def _relu_dropout_keep(pre: np.ndarray,
                       mask: Optional[np.ndarray]) -> np.ndarray:
    """The factor ``[pre > 0]·mask`` of ReLU followed by dropout, as a
    float array in the layout of the ``(O, B, L)`` pre-activation;
    ``mask`` is the ``(O, B, 1)`` view of the spatial-dropout mask."""
    live = (pre > 0).astype(pre.dtype if mask is None else mask.dtype)
    return live if mask is None else np.multiply(live, mask, out=live)


def conv1d_fused(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                 stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
                 dilation: int = 1) -> Tensor:
    """``ops.conv1d`` as one im2col GEMM tape node.

    Replaces the composed pad → window gather → ``einsum("bilk,oik->bol")``
    → bias reshape → add chain (5 nodes → 1).  The forward computes
    ``W(O, C·k) @ cols`` over the gathered taps; the backward is ``dW =
    cols @ g(B·L, O)``, ``dcols = Wᵀ(C·k, O) @ g(O, B·L)`` plus a col2im
    scatter.

    These are the operand orientations NumPy's ``einsum(optimize=True)``
    lowers the forward and both VJP contractions to, and the output (and
    ``dW``) are returned as the same transposed views of the GEMM result.
    Memory order is part of the equivalence contract: downstream
    reductions (the bias gradient, the weight-norm backward) sum in memory
    order, so the same values in another layout can round differently — a
    C-contiguous ``dW`` alone changes the final loss of a 1100-step
    nasdaq-mini fit.  Shapes :func:`conv1d_fusable` rejects run the
    composed path.
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    if x.ndim == 3 and weight.ndim == 3 and not conv1d_fusable(
            x.shape[0], weight.shape[1], weight.shape[2]):
        return conv1d(x, weight, bias, stride=stride, padding=padding,
                      dilation=dilation)
    if bias is not None:
        bias = ensure_tensor(bias)
    conv = _Im2col(x.shape, weight.shape, stride, padding, dilation,
                   x.dtype)
    conv.gather(x.data.transpose(1, 0, 2))
    batch, in_ch, _ = x.shape
    out_ch = weight.shape[0]
    out_data = conv.forward(weight.data,
                            None if bias is None else bias.data).reshape(
        out_ch, batch, conv.out_len).transpose(1, 0, 2)

    def backward(grad: np.ndarray) -> None:
        g = np.ascontiguousarray(grad.transpose(1, 0, 2)).reshape(out_ch, -1)
        dw, dx = conv.vjp(g, weight.data, weight.requires_grad,
                          x.requires_grad)
        if dw is not None:
            weight._accumulate(dw)
        if dx is not None:
            # The C-contiguous (B, C, L) gradient the composed scatter
            # hands x (layout carries into later reductions).
            x._accumulate(np.ascontiguousarray(
                dx.reshape(in_ch, batch, -1).transpose(1, 0, 2)))
        if bias is not None and bias.requires_grad:
            # Summed in the memory order of the gradient as handed in.
            bias._accumulate(_unbroadcast(grad, (1, out_ch, 1))
                             .reshape(out_ch))

    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


def temporal_block_fused(x: Tensor, weight1: Tensor, bias1: Optional[Tensor],
                         weight2: Tensor, bias2: Optional[Tensor],
                         mask1: Optional[np.ndarray] = None,
                         mask2: Optional[np.ndarray] = None,
                         downsample_weight: Optional[Tensor] = None,
                         downsample_bias: Optional[Tensor] = None,
                         stride: int = 1, dilation: int = 1) -> Tensor:
    """The Eq. (6) residual block over ``(T, N, C)`` input as one tape node.

    Replaces :class:`repro.core.TemporalConvolution`'s composed chain: the
    ``(T, N, C) → (N, C, T)`` transpose, the causal conv ``weight1`` (with
    ``stride``), ReLU, the spatial-dropout product with ``mask1``, the
    causal conv ``weight2``, ReLU, ``mask2``, the residual add (the input,
    or its strided 1×1 ``downsample_weight`` conv), the final ReLU and the
    transpose back (10–11 nodes → 1).  A ``None`` mask is no dropout
    (eval mode or ``p = 0``).  The convolutions are the im2col GEMMs of
    :func:`conv1d_fused`; every shape must pass :func:`conv1d_fusable`.

    Between its two transposes the block runs channel-major, in the
    ``(C, N, T)`` layout the GEMMs write and read, so every elementwise
    pass runs over whole contiguous arrays: conv1's unshifted tap is the
    input's one transposing copy (and the residual), conv2's taps are
    copies of ``pre1·keep1``, biases are added in place, and col2im hands
    the next GEMM its operand directly.  Only the output, the input
    gradient and the parameter gradients take the composed chain's
    layouts, and every sum runs in the composed order, so values, signed
    zeros and NaNs match it to the bit.
    """
    x = ensure_tensor(x)
    if x.ndim != 3:
        raise ValueError(f"expected (T, N, C) input, got {x.shape}")
    if not all(conv1d_fusable(x.shape[1], w.shape[1], w.shape[2])
               for w in (weight1, weight2, downsample_weight)
               if w is not None):
        raise ValueError("temporal_block_fused needs im2col-fusable "
                         "convolutions; use the composed path")
    causal = (dilation * (weight1.shape[2] - 1), 0)

    def data(t: Optional[Tensor]) -> Optional[np.ndarray]:
        return None if t is None else t.data

    def by_channel(mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
        # The (N, C, 1) dropout mask as the (C, N, 1) view.
        return None if mask is None else _as_array(mask).transpose(1, 0, 2)

    parents = tuple(t for t in (x, weight1, bias1, weight2, bias2,
                                downsample_weight, downsample_bias)
                    if t is not None)
    # Nothing is saved for a VJP that will not run (no_grad serving).
    save = is_grad_enabled() and any(t.requires_grad for t in parents)
    steps, stocks, in_ch = x.shape
    out_ch = weight1.shape[0]
    # (T, N, C) as (C, N, T): channel-major, stocks the batch axis.
    x_by_channel = x.data.transpose(2, 1, 0)
    conv1 = _Im2col((stocks, in_ch, steps), weight1.shape, stride, causal,
                    dilation, x.dtype)
    conv1.gather(x_by_channel)
    pre1 = conv1.forward(weight1.data, data(bias1))
    span = pre1.shape[1]
    # ReLU then dropout as one product with keep = (pre > 0)·mask: the
    # mask is ≥ 0 and the ReLU factor exact, so pre·keep and
    # (pre·[pre > 0])·mask agree to the bit (signed zeros and NaNs too),
    # as do the VJP's g·keep and (g·mask)·[pre > 0].
    keep1 = _relu_dropout_keep(pre1.reshape(out_ch, stocks, -1),
                               by_channel(mask1))
    out_len = span // stocks
    conv2 = _Im2col((stocks, out_ch, out_len), weight2.shape, 1, causal,
                    dilation, np.result_type(pre1, keep1))
    # pre1·keep1 is conv2's unshifted tap (conv2 is a stride-1 causal
    # conv, so its taps are shifts), written in place.
    np.multiply(pre1.reshape(keep1.shape), keep1,
                out=conv2.unshifted_tap())
    conv2.gather(None)
    # Each intermediate the VJP does not read is dropped once spent, so
    # the forward's peak (all of it under no_grad) stays the composed
    # chain's.
    del pre1
    total = conv2.forward(weight2.data, data(bias2)).reshape(
        out_ch, stocks, out_len)
    keep2 = _relu_dropout_keep(total, by_channel(mask2))
    np.multiply(total, keep2, out=total)
    if downsample_weight is None:
        # Without a downsample the block has stride 1, so conv1's taps are
        # shifts too and its unshifted tap is the input.
        residual = conv1.unshifted_tap()
    else:
        down = _Im2col((stocks, in_ch, steps), downsample_weight.shape,
                       stride, 0, 1, x.dtype)
        down.gather(x_by_channel)
        residual = down.forward(downsample_weight.data,
                                data(downsample_bias)).reshape(total.shape)
        if not save:
            del down
    np.add(total, residual, out=total)
    del residual
    if not save:
        del conv1, conv2
    # The final ReLU's factor as a float: [total > 0] exactly.
    live_out = (total > 0).astype(total.dtype)
    np.multiply(total, live_out, out=total)
    # The composed chain's output: the (N, C, H) C-order array, viewed as
    # (H, N, C).
    out_data = np.ascontiguousarray(total.transpose(1, 0, 2)).transpose(
        2, 0, 1)
    del total

    def wants(t: Optional[Tensor]) -> bool:
        return t is not None and t.requires_grad

    def backward(grad: np.ndarray) -> None:
        # A copy even where the (C, N, H) view is already contiguous (an
        # F-ordered grad): the passes below write into it, and `grad` is
        # the engine's buffer.
        g_total = np.array(grad.transpose(2, 1, 0), order="C")
        np.multiply(g_total, live_out, out=g_total)
        g_total = g_total.reshape(out_ch, span)
        # conv2's branch, in reverse.
        need_act1 = x.requires_grad or wants(weight1) or wants(bias1)
        g2 = g_total * keep2.reshape(out_ch, span)
        dw, d_act1 = conv2.vjp(g2, weight2.data, wants(weight2), need_act1)
        if dw is not None:
            weight2._accumulate(dw)
        if wants(bias2):
            bias2._accumulate(_channel_sums(g2, stocks))
        del g2
        # The residual's share of the input gradient comes first.
        g_input = None
        if downsample_weight is None:
            if x.requires_grad:
                g_input = g_total       # owned, and conv2's branch is done
        else:
            dw, g_input = down.vjp(g_total, downsample_weight.data,
                                   wants(downsample_weight), x.requires_grad)
            if dw is not None:
                downsample_weight._accumulate(dw)
            if wants(downsample_bias):
                downsample_bias._accumulate(_channel_sums(g_total, stocks))
        # conv1's branch.
        if need_act1:
            g1 = np.multiply(d_act1, keep1.reshape(d_act1.shape), out=d_act1)
            dw, dx = conv1.vjp(g1, weight1.data, wants(weight1),
                               x.requires_grad)
            if dw is not None:
                weight1._accumulate(dw)
            if wants(bias1):
                bias1._accumulate(_channel_sums(g1, stocks))
            if dx is not None:
                np.add(g_input, dx, out=g_input)
        if g_input is not None:
            # x's gradient is the C-order (N, C, T) array the composed
            # chain hands it, as a (T, N, C) view.
            x._accumulate(np.ascontiguousarray(g_input.reshape(
                in_ch, stocks, steps).transpose(1, 0, 2)).transpose(2, 0, 1))

    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused time-sensitive adjacency (Eq. 5, dense)
# ----------------------------------------------------------------------
def _relation_scores(rel: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eq. 4's importance ``𝓐w`` as one ``(N², K) @ (K,)`` GEMV.

    Bitwise the composed ``einsum("ijk,k->ij", optimize=True)`` without
    einsum's per-call path planning; a 3-D ``rel @ w`` is not bitwise
    equal at the NASDAQ-854 shape.
    """
    n, k = rel.shape[0], rel.shape[2]
    return (rel.reshape(-1, k) @ w).reshape(n, n)


def _relation_scores_vjp(g: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """``w``'s gradient of :func:`_relation_scores`: the GEMV that is
    bitwise the composed ``einsum("ij,ijk->k", optimize=True)``.  One
    stock's is a one-term contraction, which einsum takes as a product
    (a GEMV would add it onto +0.0 and lose a -0.0)."""
    g, rel = g.reshape(-1), rel.reshape(-1, rel.shape[2])
    return g[0] * rel[0] if g.size == 1 else g @ rel


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
    composed path for them).

    The second ``⊙M`` costs no pass: the importance is already zero (or
    NaN) off the mask, and ``x·0``, ``x·1`` are exact, so ``(C⊙I)⊙M`` is
    ``C⊙I`` to the bit, signed zeros and NaNs included.  Every other
    ``(T, N, N)`` pass writes into one of the node's own C-contiguous
    buffers, the layout the composed chain's reductions also sum in.
    """
    features = ensure_tensor(features)
    if features.requires_grad:
        raise ValueError("time_adjacency_fused does not differentiate the "
                         "features; use the composed path when they "
                         "require grad")
    feats = features.data
    rel, msk = relations.data, mask.data
    corr = feats @ feats.swapaxes(-1, -2)
    np.multiply(corr, _as_array(feats.shape[2] ** -0.5), out=corr)
    importance = (_relation_scores(rel, weight.data) + bias.data) * msk
    matrix = corr * importance
    np.add(matrix, _as_array(np.eye(feats.shape[1])), out=matrix)
    spare = np.abs(matrix)
    degrees = _sum_data(spare, axis=-1) + _as_array(eps)
    inv_sqrt = degrees ** -0.5
    rows = np.expand_dims(inv_sqrt, -1)
    cols = np.expand_dims(inv_sqrt, -2)
    if not (is_grad_enabled()
            and (weight.requires_grad or bias.requires_grad)):
        np.multiply(matrix, rows, out=matrix)
        return weight._make_child(np.multiply(matrix, cols, out=matrix),
                                  (weight, bias), None)
    row_scaled = np.multiply(matrix, rows, out=spare)
    out_data = row_scaled * cols

    def backward(grad: np.ndarray) -> None:
        # The composed backward's expressions, in its reverse topological
        # order: out = row_scaled·cols, row_scaled = matrix·rows, then the
        # degree chain, whose |Ã| term reaches `matrix` second.
        g_row_scaled = np.multiply(grad, cols, out=np.empty_like(matrix))
        g_matrix = np.multiply(grad, row_scaled, out=np.empty_like(matrix))
        # _unbroadcast's reduction, but always into a new array: with one
        # stock it would hand back g_matrix, which the next line reuses.
        g_cols = g_matrix.sum(axis=-2, keepdims=True)
        np.multiply(g_row_scaled, rows, out=g_matrix)
        g_inv = _unbroadcast(np.multiply(g_row_scaled, matrix,
                                         out=g_row_scaled),
                             rows.shape).reshape(inv_sqrt.shape)
        np.add(g_inv, g_cols.reshape(inv_sqrt.shape), out=g_inv)
        exponent = -0.5
        g_degrees = g_inv * exponent * degrees ** (exponent - 1)
        g_abs = np.sign(matrix, out=g_row_scaled)
        np.multiply(g_abs, np.expand_dims(g_degrees, -1), out=g_abs)
        np.add(g_matrix, g_abs, out=g_matrix)
        np.multiply(g_matrix, msk, out=g_matrix)
        g_importance = _unbroadcast(np.multiply(g_matrix, corr,
                                                out=g_matrix), msk.shape)
        g_scores = g_importance * msk
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g_scores, bias.shape))
        if weight.requires_grad:
            weight._accumulate(_relation_scores_vjp(g_scores, rel))

    return weight._make_child(out_data, (weight, bias), backward)


# ----------------------------------------------------------------------
# fused ranking loss (Eqs. 7–8)
# ----------------------------------------------------------------------
def rank_loss_fused(predicted: Tensor, actual: Tensor,
                    alpha: float) -> Tensor:
    """``τ_reg + α·τ_rank`` over 1-D scores as one tape node.

    Replaces the composed chain of :func:`repro.core.losses.combined_loss`
    before its L2 term (15 nodes → 1): the mean squared error, the mean
    pairwise hinge ``ReLU(-(r̂_i − r̂_j)(r_i − r_j))`` and their α-weighted
    sum (regression alone when ``alpha`` is 0).  ``actual`` must not
    require grad.  The scores accumulate in the composed order: the
    regression term, then the row sum the ``r̂_i`` side hands back, then
    the negated column sum of the ``r̂_j`` side.
    """
    predicted = ensure_tensor(predicted)
    actual = ensure_tensor(actual)
    if actual.requires_grad:
        raise ValueError("rank_loss_fused does not differentiate the "
                         "labels; use the composed path when they "
                         "require grad")
    if predicted.ndim != 1 or predicted.shape != actual.shape \
            or predicted.shape[0] < 2:
        raise ValueError("rank_loss_fused expects two equal-length 1-D "
                         f"vectors of 2+ scores, got {predicted.shape} and "
                         f"{actual.shape}")
    p, a = predicted.data, actual.data
    n = p.shape[0]
    diff = p + (-a)
    reg_scale = _as_array(1.0 / n)
    loss = _sum_data(diff * diff) * reg_scale
    if alpha:
        pair_diff = np.expand_dims(p, 1) + (-np.expand_dims(p, 0))
        true_diff = _as_array(a[:, None] - a[None, :])
        hinge = -(pair_diff * true_diff)
        live = hinge > 0
        rank_scale = _as_array(1.0 / (n * (n - 1)))
        weight = _as_array(alpha)
        loss = loss + (_sum_data(hinge * live) * rank_scale) * weight

    def backward(grad: np.ndarray) -> None:
        g_square = np.broadcast_to(grad * reg_scale, p.shape).copy()
        g_diff = g_square * diff
        g_diff = g_diff + g_square * diff
        predicted._accumulate(g_diff)
        if alpha:
            g_hinge = np.broadcast_to((grad * weight) * rank_scale,
                                      (n, n)).copy()
            g_pair = -(g_hinge * live) * true_diff
            predicted._accumulate(_unbroadcast(g_pair, (n, 1)).reshape(n))
            predicted._accumulate(
                -_unbroadcast(g_pair, (1, n)).reshape(n))

    return predicted._make_child(np.asarray(loss), (predicted,), backward)


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
