"""Functional ops: activations, softmax, conv1d, losses, dropout, einsum."""

import numpy as np
import pytest

from repro.tensor import (Tensor, binary_cross_entropy, concat, conv1d,
                          cross_entropy, dropout, einsum, gradcheck,
                          huber_loss, l1_loss, linear, log_softmax, maximum,
                          mse_loss, one_hot, softmax, stack, where)


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestActivations:
    def test_relu_values(self):
        assert np.allclose(t([-1.0, 0.0, 2.0]).relu().data, [0, 0, 2])

    def test_relu_grad(self, rng):
        a = t(rng.standard_normal(10) + 0.01)
        gradcheck(lambda: a.relu().sum(), [a])

    def test_sigmoid_range_and_grad(self, rng):
        a = t(rng.standard_normal(8))
        out = a.sigmoid()
        assert np.all((out.data > 0) & (out.data < 1))
        gradcheck(lambda: a.sigmoid().sum(), [a])

    def test_sigmoid_extreme_inputs_stable(self):
        out = t([1000.0, -1000.0]).sigmoid()
        assert np.allclose(out.data, [1.0, 0.0])
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bitwise_matches_two_exp_form(self, dtype):
        """The one-exp kernel against the two-branch, two-exp expression
        it replaced, over normal samples at scales 0.1 to 1000 and the
        edge values; NaN stays NaN (only its payload may differ)."""
        def two_exp(x):
            return np.where(x >= 0,
                            1.0 / (1.0 + np.exp(-np.clip(x, -500, 500))),
                            np.exp(np.clip(x, -500, 500))
                            / (1.0 + np.exp(np.clip(x, -500, 500))))

        gen = np.random.default_rng(0)
        edges = [0.0, -0.0, np.inf, -np.inf, 500.0, -500.0, 500.1, -500.1,
                 1e-320, -1e-320, 709.0, -745.0, np.nan]
        samples = [gen.standard_normal(200_000) * scale
                   for scale in (0.1, 1.0, 10.0, 100.0, 1000.0)]
        x = np.concatenate(samples + [np.array(edges)]).astype(dtype)
        with np.errstate(all="ignore"):
            expected = two_exp(x)
            out = Tensor(x).sigmoid().data
        assert out.dtype == expected.dtype == dtype
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(out), nan)
        bits = np.uint64 if dtype == np.float64 else np.uint32
        np.testing.assert_array_equal(out[~nan].view(bits),
                                      expected[~nan].view(bits))

    def test_tanh_grad(self, rng):
        a = t(rng.standard_normal(8))
        gradcheck(lambda: a.tanh().sum(), [a])

    def test_leaky_relu_negative_slope(self):
        out = t([-2.0, 2.0]).leaky_relu(0.1)
        assert np.allclose(out.data, [-0.2, 2.0])

    def test_leaky_relu_grad(self, rng):
        a = t(rng.standard_normal(8) + 0.05)
        gradcheck(lambda: a.leaky_relu(0.2).sum(), [a])

    def test_elu_grad(self, rng):
        a = t(rng.standard_normal(8))
        gradcheck(lambda: a.elu().sum(), [a])

    def test_exp_log_sqrt_grads(self, rng):
        a = t(rng.uniform(0.5, 2.0, 6))
        gradcheck(lambda: a.exp().sum(), [a])
        gradcheck(lambda: a.log().sum(), [a])
        gradcheck(lambda: a.sqrt().sum(), [a])

    def test_clip_values_and_grad(self, rng):
        a = t([-2.0, 0.5, 3.0])
        assert np.allclose(a.clip(-1, 1).data, [-1, 0.5, 1])
        b = t(rng.uniform(-2, 2, 8))
        gradcheck(lambda: b.clip(-1.0, 1.0).sum(), [b])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(t(rng.standard_normal((4, 6))), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        assert np.allclose(softmax(t(x)).data, softmax(t(x + 100)).data)

    def test_grad(self, rng):
        a = t(rng.standard_normal((3, 4)))
        gradcheck(lambda: (softmax(a, axis=-1) ** 2).sum(), [a])

    def test_log_softmax_consistency(self, rng):
        x = t(rng.standard_normal((2, 5)))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_log_softmax_grad(self, rng):
        a = t(rng.standard_normal((2, 5)))
        gradcheck(lambda: log_softmax(a).sum(), [a])


class TestConv1d:
    def test_identity_kernel(self):
        x = t(np.arange(12, dtype=np.float64).reshape(1, 1, 12))
        w = t(np.ones((1, 1, 1)))
        assert np.allclose(conv1d(x, w).data, x.data)

    def test_known_moving_sum(self):
        x = t(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
        w = t(np.ones((1, 1, 2)))
        assert np.allclose(conv1d(x, w).data, [[[3.0, 5.0, 7.0]]])

    def test_output_length_with_stride(self, rng):
        x = t(rng.standard_normal((2, 3, 10)))
        w = t(rng.standard_normal((4, 3, 3)))
        assert conv1d(x, w, stride=2).shape == (2, 4, 4)

    def test_causal_padding_preserves_length(self, rng):
        x = t(rng.standard_normal((1, 2, 8)))
        w = t(rng.standard_normal((2, 2, 3)))
        out = conv1d(x, w, padding=(2, 0))
        assert out.shape == (1, 2, 8)

    def test_dilation_receptive_field(self, rng):
        x = t(rng.standard_normal((1, 1, 10)))
        w = t(rng.standard_normal((1, 1, 3)))
        out = conv1d(x, w, dilation=3)
        assert out.shape == (1, 1, 4)   # span = (3-1)*3+1 = 7

    def test_grad_full(self, rng):
        x = t(rng.standard_normal((2, 3, 9)))
        w = t(rng.standard_normal((4, 3, 3)))
        b = t(rng.standard_normal(4))
        gradcheck(lambda: conv1d(x, w, b, stride=2, padding=1,
                                 dilation=2).sum(), [x, w, b])

    def test_channel_mismatch_raises(self, rng):
        x = t(rng.standard_normal((1, 2, 8)))
        w = t(rng.standard_normal((1, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv1d(x, w)

    def test_too_short_input_raises(self, rng):
        x = t(rng.standard_normal((1, 1, 2)))
        w = t(rng.standard_normal((1, 1, 5)))
        with pytest.raises(ValueError, match="shorter than"):
            conv1d(x, w)

    def test_wrong_rank_raises(self, rng):
        with pytest.raises(ValueError):
            conv1d(t(rng.standard_normal((3, 4))),
                   t(rng.standard_normal((1, 1, 2))))


class TestGraphCombinators:
    def test_concat_values(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 2))
        out = concat([t(a), t(b)], axis=1)
        assert np.allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concat_grad(self, rng):
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 2)))
        gradcheck(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_grad(self, rng):
        a, b = t(rng.standard_normal(4)), t(rng.standard_normal(4))
        gradcheck(lambda: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_where_selects(self):
        out = where(np.array([True, False]), t([1.0, 2.0]), t([9.0, 9.0]))
        assert np.allclose(out.data, [1.0, 9.0])

    def test_where_grad(self, rng):
        a, b = t(rng.standard_normal(6)), t(rng.standard_normal(6))
        cond = rng.uniform(size=6) > 0.5
        gradcheck(lambda: where(cond, a * 2, b * 3).sum(), [a, b])

    def test_maximum_grad_no_ties(self, rng):
        a = t(rng.standard_normal(6))
        b = t(rng.standard_normal(6))
        gradcheck(lambda: maximum(a, b).sum(), [a, b])

    def test_einsum_contraction(self, rng):
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((4, 5)))
        out = einsum("ij,jk->ik", a, b)
        assert np.allclose(out.data, a.data @ b.data)
        gradcheck(lambda: einsum("ij,jk->ik", a, b).sum(), [a, b])

    def test_einsum_relation_weighting(self, rng):
        # The exact pattern used by the weight strategy.
        rel = t(rng.uniform(size=(5, 5, 3)), grad=False)
        w = t(rng.standard_normal(3))
        gradcheck(lambda: (einsum("ijk,k->ij", rel, w) ** 2).sum(), [w])

    def test_einsum_requires_explicit_output(self, rng):
        with pytest.raises(ValueError):
            einsum("ij,jk", t(rng.standard_normal((2, 2))),
                   t(rng.standard_normal((2, 2))))


class TestLossesAndUtilities:
    def test_mse_zero_for_equal(self, rng):
        x = rng.standard_normal(5)
        assert mse_loss(t(x), t(x)).item() == 0.0

    def test_mse_grad(self, rng):
        a = t(rng.standard_normal(5))
        y = Tensor(rng.standard_normal(5))
        gradcheck(lambda: mse_loss(a, y), [a])

    def test_l1_loss_value(self):
        assert np.isclose(l1_loss(t([1.0, -1.0]), t([0.0, 0.0])).item(), 1.0)

    def test_huber_quadratic_inside_delta(self):
        loss = huber_loss(t([0.5]), t([0.0]), delta=1.0)
        assert np.isclose(loss.item(), 0.125)

    def test_huber_linear_outside_delta(self):
        loss = huber_loss(t([3.0]), t([0.0]), delta=1.0)
        assert np.isclose(loss.item(), 2.5)

    def test_huber_grad(self, rng):
        a = t(rng.standard_normal(8) * 2)
        y = Tensor(rng.standard_normal(8))
        gradcheck(lambda: huber_loss(a, y, delta=0.7), [a])

    def test_bce_matches_reference(self, rng):
        logits = rng.standard_normal(10)
        targets = (rng.uniform(size=10) > 0.5).astype(float)
        ours = binary_cross_entropy(t(logits), Tensor(targets)).item()
        p = 1 / (1 + np.exp(-logits))
        ref = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert np.isclose(ours, ref)

    def test_bce_grad(self, rng):
        logits = t(rng.standard_normal(6))
        targets = Tensor((rng.uniform(size=6) > 0.5).astype(float))
        gradcheck(lambda: binary_cross_entropy(logits, targets), [logits])

    def test_cross_entropy_perfect_prediction(self):
        logits = t([[100.0, 0.0, 0.0]])
        assert cross_entropy(logits, np.array([0])).item() < 1e-6

    def test_cross_entropy_grad(self, rng):
        logits = t(rng.standard_normal((4, 3)))
        labels = rng.integers(0, 3, size=4)
        gradcheck(lambda: cross_entropy(logits, labels), [logits])

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        assert np.allclose(out.data, [[1, 0, 0], [0, 0, 1]])

    def test_linear_matches_manual(self, rng):
        x = t(rng.standard_normal((3, 4)))
        w = t(rng.standard_normal((2, 4)))
        b = t(rng.standard_normal(2))
        assert np.allclose(linear(x, w, b).data, x.data @ w.data.T + b.data)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = t(rng.standard_normal(100))
        assert np.allclose(dropout(x, 0.5, training=False).data, x.data)

    def test_zero_p_identity(self, rng):
        x = t(rng.standard_normal(100))
        assert np.allclose(dropout(x, 0.0).data, x.data)

    def test_scaling_preserves_expectation(self):
        x = Tensor(np.ones(200_00))
        out = dropout(x, 0.3, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            dropout(t(rng.standard_normal(4)), 1.0)
