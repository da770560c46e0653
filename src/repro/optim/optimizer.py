"""Gradient-descent optimizers.

The paper trains every model with Adam (lr = 0.001, §V-B-4); SGD and RMSprop
are provided for the baselines and the test-suite's convergence checks.
All optimizers operate on the ``grad`` arrays produced by
``Tensor.backward`` and support decoupled or coupled weight decay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..tensor import Tensor


class Optimizer:
    """Base class holding the parameter list and per-parameter state.

    Optimizers serialize through the same ``state_dict()`` /
    ``load_state_dict()`` contract as :class:`~repro.nn.Module`, so a
    checkpoint can persist Adam's moment buffers and step count and resume
    a run bitwise-identically (see :mod:`repro.ckpt`).
    """

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.state: Dict[int, Dict[str, np.ndarray]] = {}
        self._step_count = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _state_for(self, index: int) -> Dict[str, np.ndarray]:
        return self.state.setdefault(index, {})

    # ------------------------------------------------------------------
    # serialization (mirrors the Module contract)
    # ------------------------------------------------------------------
    #: scalar attributes serialized alongside the buffers; subclasses
    #: extend this with their own hyperparameters.
    _hyperparameter_names: tuple = ("lr",)

    def state_dict(self) -> Dict[str, object]:
        """Full optimizer state: hyperparameters, step count, and a copy
        of every per-parameter buffer, keyed by parameter index."""
        return {
            "type": type(self).__name__,
            "step_count": self._step_count,
            "hyperparameters": {name: getattr(self, name)
                                for name in self._hyperparameter_names},
            "state": {index: {slot: array.copy()
                              for slot, array in slots.items()}
                      for index, slots in self.state.items()},
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict`.

        The optimizer must hold the same parameter list (same count and
        shapes) it was created with; buffer shapes are validated against
        the current parameters.
        """
        if state.get("type") != type(self).__name__:
            raise ValueError(f"optimizer state is for {state.get('type')!r}, "
                             f"cannot load into {type(self).__name__}")
        for name, value in state.get("hyperparameters", {}).items():
            if name not in self._hyperparameter_names:
                raise ValueError(f"unknown hyperparameter {name!r} for "
                                 f"{type(self).__name__}")
            setattr(self, name, value)
        restored: Dict[int, Dict[str, np.ndarray]] = {}
        for index, slots in state.get("state", {}).items():
            index = int(index)
            if not 0 <= index < len(self.params):
                raise ValueError(f"optimizer state refers to parameter "
                                 f"{index}, but only {len(self.params)} "
                                 "parameters are registered")
            expected = self.params[index].data.shape
            buffers: Dict[str, np.ndarray] = {}
            for slot, array in slots.items():
                array = np.asarray(array)
                if array.shape != expected and array.shape != ():
                    raise ValueError(
                        f"optimizer buffer {slot!r} for parameter {index} "
                        f"has shape {array.shape}, parameter is {expected}")
                buffers[slot] = array.copy()
            restored[index] = buffers
        self.state = restored
        self._step_count = int(state.get("step_count", 0))


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay

    _hyperparameter_names = ("lr", "momentum", "nesterov", "weight_decay")

    def step(self) -> None:
        self._step_count += 1
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                state = self._state_for(i)
                buf = state.get("momentum")
                if buf is None:
                    buf = grad.copy()
                else:
                    buf = self.momentum * buf + grad
                state["momentum"] = buf
                grad = grad + self.momentum * buf if self.nesterov else buf
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    ``weight_decay`` here is the classic L2-coupled form (added to the
    gradient), matching the paper's λ‖β‖² regularization when used together
    with an explicit loss term of zero — the trainer instead keeps λ in the
    loss (Eq. 9) and leaves this at 0 by default.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        # flat buffers, keyed by the indices of the parameters one flat
        # update covers
        self._flat: Dict[tuple, "_FlatAdam"] = {}

    _hyperparameter_names = ("lr", "beta1", "beta2", "eps", "weight_decay")

    def _decay(self, param: Tensor, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            return grad + self.weight_decay * param.data
        return grad

    def step(self) -> None:
        """One update over every parameter with a gradient.

        The parameters are updated as one flat vector per dtype: their
        gradients are concatenated and ``m``/``v`` live in flat buffers
        whose per-parameter views are the ``state`` entries, so a step is
        a dozen whole-vector ufuncs instead of a dozen per parameter.  The
        per-element expressions and their order are the per-parameter
        ones, so the values are too.  A parameter without a gradient is
        skipped and its ``m``/``v`` are left alone.
        """
        self._step_count += 1
        t = self._step_count
        groups: Dict[np.dtype, List[int]] = {}
        for i, param in enumerate(self.params):
            if param.grad is not None:
                groups.setdefault(param.data.dtype, []).append(i)
        for indices in groups.values():
            self._flat_step(indices, t)

    def _flat_buffers(self, indices: List[int]) -> "_FlatAdam":
        """The flat buffers of ``indices``; rebuilt when that set changes
        or ``state[i]`` no longer holds their views (a load, or a reset)."""
        key = tuple(indices)
        flat = self._flat.get(key)
        if flat is not None and all(
                self.state.get(i, {}).get("m") is m_view
                and self.state[i].get("v") is v_view
                for i, m_view, v_view in zip(indices, flat.m_views,
                                             flat.v_views)):
            return flat
        for stale in [k for k in self._flat if not set(k).isdisjoint(key)]:
            del self._flat[stale]       # their views leave ``state`` below
        flat = _FlatAdam([self.params[i].data for i in indices])
        for i, m_view, v_view in zip(indices, flat.m_views, flat.v_views):
            state = self._state_for(i)
            if state.get("m") is not None:
                m_view[...] = state["m"]
                v_view[...] = state["v"]
            state["m"], state["v"] = m_view, v_view
        self._flat[key] = flat
        return flat

    def _flat_step(self, indices: List[int], t: int) -> None:
        params = [self.params[i] for i in indices]
        flat = self._flat_buffers(indices)
        grad = np.concatenate([self._decay(p, p.grad).ravel()
                               for p in params], out=flat.grad)
        m, v, scratch, update = flat.m, flat.v, flat.scratch, flat.update
        # m = beta1*m + (1-beta1)*g;  v = beta2*v + ((1-beta2)*g)*g
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1 - self.beta1, out=scratch)
        np.add(m, scratch, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, 1 - self.beta2, out=scratch)
        np.multiply(scratch, grad, out=scratch)
        np.add(v, scratch, out=v)
        # update = lr*m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1 - self.beta1 ** t, out=update)
        np.multiply(update, self.lr, out=update)
        np.divide(v, 1 - self.beta2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        np.add(scratch, self.eps, out=scratch)
        np.divide(update, scratch, out=update)
        for param, step in zip(params, flat.update_views):
            param.data -= step


class _FlatAdam:
    """Adam's flat per-dtype buffers for one set of parameters: ``m`` and
    ``v`` (whose per-parameter views are the optimizer's ``state``), the
    concatenated gradient, a scratch vector and the update with its
    per-parameter views."""

    __slots__ = ("m", "v", "grad", "scratch", "update", "m_views",
                 "v_views", "update_views")

    def __init__(self, arrays: List[np.ndarray]):
        size = sum(a.size for a in arrays)
        dtype = arrays[0].dtype
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self.grad = np.empty(size, dtype=dtype)
        self.scratch = np.empty(size, dtype=dtype)
        self.update = np.empty(size, dtype=dtype)
        self.m_views, self.v_views, self.update_views = [], [], []
        offset = 0
        for array in arrays:
            end = offset + array.size
            for flat, views in ((self.m, self.m_views),
                                (self.v, self.v_views),
                                (self.update, self.update_views)):
                views.append(flat[offset:end].reshape(array.shape))
            offset = end


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _decay(self, param: Tensor, grad: np.ndarray) -> np.ndarray:
        return grad  # decay applied directly to weights in step()

    def step(self) -> None:
        if self.weight_decay:
            for param in self.params:
                if param.grad is not None:
                    param.data -= self.lr * self.weight_decay * param.data
        super().step()


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton), used by the RL baselines' critics."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-2,
                 alpha: float = 0.99, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay

    _hyperparameter_names = ("lr", "alpha", "eps", "weight_decay")

    def step(self) -> None:
        self._step_count += 1
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            state = self._state_for(i)
            avg = state.get("square_avg")
            if avg is None:
                avg = np.zeros_like(param.data)
            avg = self.alpha * avg + (1 - self.alpha) * grad * grad
            state["square_avg"] = avg
            param.data -= self.lr * grad / (np.sqrt(avg) + self.eps)


def clip_grad_norm_(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is ≤ ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def clip_grad_value_(params: Iterable[Tensor], clip_value: float) -> None:
    """Clamp every gradient element into ``[-clip_value, clip_value]``."""
    for p in params:
        if p.grad is not None:
            np.clip(p.grad, -clip_value, clip_value, out=p.grad)
