"""Optimizers: update rules, convergence, clipping, schedulers."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.module import Parameter
from repro.optim import (Adam, AdamW, CosineAnnealingLR, ExponentialLR,
                         ReduceLROnPlateau, RMSprop, SGD, StepLR,
                         clip_grad_norm_, clip_grad_value_)
from repro.tensor import Tensor, mse_loss


def quadratic_param(value=5.0):
    return Parameter(np.array([value]))


def step_once(optimizer, param):
    optimizer.zero_grad()
    loss = (param * param).sum()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestSGD:
    def test_plain_update_rule(self):
        p = quadratic_param(3.0)
        SGD([p], lr=0.1).step_count = None
        opt = SGD([p], lr=0.1)
        step_once(opt, p)
        # grad of x^2 at 3 is 6 -> 3 - 0.1*6 = 2.4
        assert np.isclose(p.data[0], 2.4)

    def test_momentum_accelerates(self):
        p1, p2 = quadratic_param(), quadratic_param()
        plain, momentum = SGD([p1], lr=0.01), SGD([p2], lr=0.01, momentum=0.9)
        for _ in range(10):
            step_once(plain, p1)
            step_once(momentum, p2)
        assert abs(p2.data[0]) < abs(p1.data[0])

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, nesterov=True)

    def test_converges_to_minimum(self):
        p = quadratic_param(4.0)
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-4


class TestAdam:
    def test_first_step_size_is_lr(self):
        # Bias correction makes the first Adam step ≈ lr in magnitude.
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.05)
        step_once(opt, p)
        assert np.isclose(p.data[0], 1.0 - 0.05, atol=1e-6)

    def test_converges_quadratic(self):
        p = quadratic_param(3.0)
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-3

    def test_skips_parameters_without_grad(self):
        p, q = quadratic_param(1.0), quadratic_param(2.0)
        opt = Adam([p, q], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        assert q.data[0] == 2.0

    def test_trains_real_model(self, rng):
        nn.manual_seed(0)
        model = nn.Sequential(nn.Linear(2, 8), nn.Tanh(), nn.Linear(8, 1))
        X = rng.standard_normal((64, 2))
        y = (X[:, :1] * 2 - X[:, 1:] * 0.5)
        opt = Adam(model.parameters(), lr=0.02)
        first = None
        for _ in range(150):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(X)), Tensor(y))
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first * 0.05

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.9))

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], lr=0.0)


def _reference_adam_step(opt, state, step):
    """Adam as a loop over parameters, one set of ufuncs each: the
    per-element expressions the flat update must reproduce bitwise."""
    if isinstance(opt, AdamW) and opt.weight_decay:
        for param in opt.params:
            if param.grad is not None:
                param.data -= opt.lr * opt.weight_decay * param.data
    for i, param in enumerate(opt.params):
        if param.grad is None:
            continue
        grad = param.grad
        if opt.weight_decay and not isinstance(opt, AdamW):
            grad = grad + opt.weight_decay * param.data
        slots = state.setdefault(i, {"m": np.zeros_like(param.data),
                                     "v": np.zeros_like(param.data)})
        slots["m"] = opt.beta1 * slots["m"] + (1 - opt.beta1) * grad
        slots["v"] = opt.beta2 * slots["v"] + (1 - opt.beta2) * grad * grad
        m_hat = slots["m"] / (1 - opt.beta1 ** step)
        v_hat = slots["v"] / (1 - opt.beta2 ** step)
        param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


class TestFlatAdam:
    @pytest.mark.parametrize("cls,weight_decay", [(Adam, 0.0),
                                                  (Adam, 0.01),
                                                  (AdamW, 0.01)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_parameter_reference(self, cls, weight_decay,
                                             dtype):
        """60 steps; one parameter skips some steps (grad None), one gets
        transposed gradients, and the optimizer is rebuilt from its
        state_dict mid-run."""
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 3, 2), ()]
        start = [rng.standard_normal(shape).astype(dtype)
                 for shape in shapes]
        flat = [Parameter(v.copy()) for v in start]
        ref = [Parameter(v.copy()) for v in start]
        opt = cls(flat, lr=0.01, weight_decay=weight_decay)
        ref_opt = cls(ref, lr=0.01, weight_decay=weight_decay)
        ref_state = {}
        for step in range(1, 61):
            for p, q in zip(flat, ref):
                grad = rng.standard_normal(p.shape).astype(dtype)
                if p.ndim == 3:
                    grad = grad.transpose(1, 0, 2).copy().transpose(1, 0, 2)
                p.grad, q.grad = grad.copy(order="K"), grad.copy(order="K")
            if step % 7 == 3:
                flat[1].grad = ref[1].grad = None
            if step == 30:
                saved = opt.state_dict()
                opt = cls(flat, lr=0.01, weight_decay=weight_decay)
                opt.load_state_dict(saved)
            opt.step()
            _reference_adam_step(ref_opt, ref_state, step)
            for p, q in zip(flat, ref):
                np.testing.assert_array_equal(p.data, q.data)
        for i, slots in ref_state.items():
            for slot in ("m", "v"):
                np.testing.assert_array_equal(opt.state[i][slot],
                                              slots[slot])

    def test_skipped_parameter_moments_left_alone(self):
        a, b = Parameter(np.ones(3)), Parameter(np.ones(2))
        opt = Adam([a, b], lr=0.1)
        a.grad, b.grad = np.full(3, 0.5), np.full(2, 0.5)
        opt.step()
        m_b, v_b = opt.state[1]["m"].copy(), opt.state[1]["v"].copy()
        b.grad = None
        opt.step()
        np.testing.assert_array_equal(opt.state[1]["m"], m_b)
        np.testing.assert_array_equal(opt.state[1]["v"], v_b)
        assert not np.array_equal(opt.state[0]["m"], np.full(3, 0.05))

    def test_state_dict_format_unchanged(self):
        p, q = Parameter(np.ones((2, 3))), Parameter(np.ones(4))
        opt = Adam([p, q], lr=0.1)
        p.grad, q.grad = np.ones((2, 3)), np.ones(4)
        opt.step()
        state = opt.state_dict()
        assert set(state) == {"type", "step_count", "hyperparameters",
                              "state"}
        assert set(state["state"]) == {0, 1}
        assert set(state["state"][0]) == {"m", "v"}
        assert state["state"][0]["m"].shape == (2, 3)
        assert state["state"][1]["v"].shape == (4,)


class TestAdamWAndRMSprop:
    def test_adamw_decays_even_with_zero_grad(self):
        p = Parameter(np.array([1.0]))
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert np.isclose(p.data[0], 1.0 - 0.1 * 0.5)

    def test_rmsprop_converges(self):
        p = quadratic_param(2.0)
        opt = RMSprop([p], lr=0.05)
        for _ in range(200):
            step_once(opt, p)
        assert abs(p.data[0]) < 1e-2


class TestOptimizerState:
    def test_adam_roundtrip_resumes_bitwise(self):
        full = quadratic_param(3.0)
        opt_full = Adam([full], lr=0.05)
        for _ in range(10):
            step_once(opt_full, full)

        half = quadratic_param(3.0)
        opt_half = Adam([half], lr=0.05)
        for _ in range(4):
            step_once(opt_half, half)
        resumed = Parameter(half.data.copy())
        opt_resumed = Adam([resumed], lr=0.05)
        opt_resumed.load_state_dict(opt_half.state_dict())
        for _ in range(6):
            step_once(opt_resumed, resumed)
        assert resumed.data[0] == full.data[0]   # bitwise, not approximate

    def test_sgd_momentum_buffer_roundtrip(self):
        p = quadratic_param(2.0)
        opt = SGD([p], lr=0.01, momentum=0.9)
        for _ in range(3):
            step_once(opt, p)
        state = opt.state_dict()
        q = Parameter(p.data.copy())
        opt2 = SGD([q], lr=0.01, momentum=0.9)
        opt2.load_state_dict(state)
        step_once(opt, p)
        step_once(opt2, q)
        assert p.data[0] == q.data[0]

    def test_state_dict_is_a_copy(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1)
        step_once(opt, p)
        state = opt.state_dict()
        state["state"][0]["m"][...] = 99.0
        assert not np.allclose(opt.state[0]["m"], 99.0)

    def test_hyperparameters_restored(self):
        opt = Adam([quadratic_param()], lr=0.5, betas=(0.8, 0.95))
        state = opt.state_dict()
        other = Adam([quadratic_param()], lr=0.001)
        other.load_state_dict(state)
        assert other.lr == 0.5
        assert other.beta1 == 0.8
        assert other.beta2 == 0.95

    def test_type_mismatch_rejected(self):
        sgd_state = SGD([quadratic_param()], lr=0.1).state_dict()
        with pytest.raises(ValueError, match="SGD"):
            Adam([quadratic_param()]).load_state_dict(sgd_state)

    def test_unknown_hyperparameter_rejected(self):
        opt = Adam([quadratic_param()])
        state = opt.state_dict()
        state["hyperparameters"]["temperature"] = 1.0
        with pytest.raises(ValueError, match="temperature"):
            Adam([quadratic_param()]).load_state_dict(state)

    def test_out_of_range_parameter_index_rejected(self):
        p = quadratic_param(1.0)
        opt = Adam([p], lr=0.1)
        step_once(opt, p)
        state = opt.state_dict()
        with pytest.raises(ValueError, match="parameter"):
            Adam([quadratic_param(), quadratic_param()]).load_state_dict(
                {**state, "state": {5: state["state"][0]}})

    def test_buffer_shape_mismatch_rejected(self):
        p = Parameter(np.ones(3))
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        state = opt.state_dict()
        with pytest.raises(ValueError, match="shape"):
            Adam([Parameter(np.ones(7))]).load_state_dict(state)


class TestSchedulerState:
    def test_steplr_roundtrip_continues_schedule(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        for _ in range(3):
            sched.step()
        opt2 = Adam([quadratic_param()], lr=1.0)
        sched2 = StepLR(opt2, step_size=2, gamma=0.1)
        sched2.load_state_dict(sched.state_dict())
        assert opt2.lr == opt.lr
        sched.step()
        sched2.step()
        assert opt2.lr == opt.lr == pytest.approx(0.01)

    def test_scheduler_type_mismatch_rejected(self):
        opt = Adam([quadratic_param()], lr=1.0)
        state = StepLR(opt, step_size=2).state_dict()
        with pytest.raises(ValueError, match="StepLR"):
            ExponentialLR(opt, gamma=0.5).load_state_dict(state)

    def test_plateau_roundtrip_keeps_counters_and_lr(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=1)
        sched.step(1.0)
        sched.step(1.0)
        sched.step(1.0)   # second bad epoch -> lr 0.5
        opt2 = Adam([quadratic_param()], lr=1.0)
        sched2 = ReduceLROnPlateau(opt2, factor=0.5, patience=1)
        sched2.load_state_dict(sched.state_dict())
        assert opt2.lr == 0.5
        assert sched2.best == 1.0
        sched.step(1.0)
        sched2.step(1.0)
        assert opt2.lr == opt.lr


class TestClipping:
    def test_clip_norm_scales_down(self):
        p = Parameter(np.array([1.0, 1.0]))
        p.grad = np.array([3.0, 4.0])
        total = clip_grad_norm_([p], max_norm=1.0)
        assert np.isclose(total, 5.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_clip_norm_no_change_below_threshold(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        clip_grad_norm_([p], max_norm=10.0)
        assert np.isclose(p.grad[0], 0.5)

    def test_clip_value(self):
        p = Parameter(np.array([1.0, 1.0]))
        p.grad = np.array([-7.0, 0.2])
        clip_grad_value_([p], 0.5)
        assert np.allclose(p.grad, [-0.5, 0.2])


class TestSchedulers:
    def test_step_lr(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        assert np.allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_exponential_lr(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = ExponentialLR(opt, gamma=0.5)
        sched.step()
        sched.step()
        assert np.isclose(opt.lr, 0.25)

    def test_cosine_reaches_eta_min(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10, eta_min=0.05)
        for _ in range(10):
            sched.step()
        assert np.isclose(opt.lr, 0.05)

    def test_cosine_monotone_decreasing(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=8)
        values = []
        for _ in range(8):
            sched.step()
            values.append(opt.lr)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_plateau_reduces_after_patience(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=1)
        sched.step(1.0)
        sched.step(1.0)   # bad epoch 1
        sched.step(1.0)   # bad epoch 2 -> reduce
        assert np.isclose(opt.lr, 0.5)

    def test_plateau_resets_on_improvement(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=1)
        sched.step(1.0)
        sched.step(1.1)
        sched.step(0.5)   # improvement resets counter
        sched.step(0.6)
        assert opt.lr == 1.0

    def test_plateau_max_mode(self):
        opt = Adam([quadratic_param()], lr=1.0)
        sched = ReduceLROnPlateau(opt, factor=0.1, patience=0, mode="max")
        sched.step(1.0)
        sched.step(0.9)   # worse in max mode -> reduce immediately
        assert np.isclose(opt.lr, 0.1)

    def test_plateau_invalid_mode(self):
        with pytest.raises(ValueError):
            ReduceLROnPlateau(Adam([quadratic_param()]), mode="sideways")
