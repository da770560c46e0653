"""Linear, convolution, normalization and dropout layers."""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import TemporalConvolution
from repro.tensor import Tensor, fused_kernels, gradcheck


class TestLinear:
    def test_shapes(self, rng):
        layer = nn.Linear(4, 7)
        assert layer(Tensor(rng.standard_normal((3, 4)))).shape == (3, 7)

    def test_batched_leading_dims(self, rng):
        layer = nn.Linear(4, 2)
        out = layer(Tensor(rng.standard_normal((5, 3, 4))))
        assert out.shape == (5, 3, 2)

    def test_no_bias(self, rng):
        layer = nn.Linear(3, 2, bias=False)
        assert layer.bias is None
        x = np.zeros((1, 3))
        assert np.allclose(layer(Tensor(x)).data, 0.0)

    def test_gradcheck(self, rng):
        layer = nn.Linear(3, 2)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gradcheck(lambda: layer(x).sum(), [x, layer.weight, layer.bias])

    def test_wrong_input_dim_raises(self, rng):
        with pytest.raises(ValueError):
            nn.Linear(3, 2)(Tensor(rng.standard_normal((4, 5))))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)


class TestConvLayers:
    def test_conv1d_shapes(self, rng):
        layer = nn.Conv1d(3, 5, kernel_size=3, padding=1)
        out = layer(Tensor(rng.standard_normal((2, 3, 8))))
        assert out.shape == (2, 5, 8)

    def test_conv1d_gradcheck(self, rng):
        layer = nn.Conv1d(2, 3, kernel_size=2)
        x = Tensor(rng.standard_normal((1, 2, 6)), requires_grad=True)
        gradcheck(lambda: layer(x).sum(),
                  [x, layer.weight, layer.bias])

    def test_causal_preserves_length(self, rng):
        layer = nn.CausalConv1d(2, 2, kernel_size=3, dilation=2)
        out = layer(Tensor(rng.standard_normal((1, 2, 10))))
        assert out.shape == (1, 2, 10)

    def test_causal_no_future_leakage(self):
        layer = nn.CausalConv1d(1, 1, kernel_size=3, dilation=1)
        base = layer(Tensor(np.zeros((1, 1, 12)))).data
        bumped = np.zeros((1, 1, 12))
        bumped[0, 0, 8] = 1.0
        out = layer(Tensor(bumped)).data
        # Output strictly before the bump must be unchanged.
        assert np.allclose(out[0, 0, :8], base[0, 0, :8])
        assert not np.allclose(out[0, 0, 8:], base[0, 0, 8:])

    def test_weight_norm_matches_plain_at_init(self, rng):
        gen = np.random.default_rng(3)
        wn = nn.WeightNormConv1d(2, 3, kernel_size=2, rng=gen)
        x = Tensor(rng.standard_normal((1, 2, 6)))
        # At init g = ||v||, so effective weight equals v.
        effective = wn._weight().data
        assert np.allclose(effective, wn.weight_v.data, atol=1e-10)
        assert wn(x).shape == (1, 3, 5)

    def test_weight_norm_direction_invariance(self, rng):
        wn = nn.WeightNormConv1d(1, 1, kernel_size=2)
        wn.weight_v.data *= 10.0    # scaling v must not change w
        w_scaled = wn._weight().data.copy()
        wn.weight_v.data /= 10.0
        assert np.allclose(wn._weight().data, w_scaled)

    def test_weight_norm_gradcheck(self, rng):
        wn = nn.WeightNormConv1d(2, 2, kernel_size=2)
        x = Tensor(rng.standard_normal((1, 2, 5)), requires_grad=True)
        gradcheck(lambda: wn(x).sum(),
                  [x, wn.weight_g, wn.weight_v, wn.bias])

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            nn.Conv1d(1, 1, kernel_size=0)


class TestTemporalBlocks:
    def test_block_output_shape_stride(self, rng):
        block = nn.TemporalBlock(3, 6, kernel_size=3, stride=2, dropout=0.0)
        out = block(Tensor(rng.standard_normal((4, 3, 10))))
        assert out.shape == (4, 6, 5)

    def test_block_residual_identity_path(self, rng):
        # same channels, stride 1 -> no downsample module
        block = nn.TemporalBlock(4, 4, dropout=0.0)
        assert block.downsample is None

    def test_block_downsample_created_when_needed(self):
        assert nn.TemporalBlock(3, 5, dropout=0.0).downsample is not None
        assert nn.TemporalBlock(4, 4, stride=2,
                                dropout=0.0).downsample is not None

    def test_block_gradient_flows_to_all_params(self, rng):
        block = nn.TemporalBlock(2, 3, dropout=0.0)
        x = Tensor(rng.standard_normal((2, 2, 8)), requires_grad=True)
        block(x).sum().backward()
        for name, p in block.named_parameters():
            assert p.grad is not None, name

    def test_tcn_causality_end_to_end(self):
        """A bump at t = 9 leaves every earlier output of the dilated
        causal block untouched, on the fused node and the composed chain."""
        for enabled in (True, False):
            conv = TemporalConvolution(2, 3, kernel_size=2, dilation=2,
                                       dropout=0.0,
                                       rng=np.random.default_rng(0))
            with fused_kernels(enabled):
                base = conv(Tensor(np.zeros((12, 3, 2)))).data
                bumped = np.zeros((12, 3, 2))
                bumped[9, 0, 0] = 1.0
                out = conv(Tensor(bumped)).data
            assert np.allclose(out[:9], base[:9])
            assert not np.allclose(out[9:], base[9:])


class TestNorm:
    def test_layernorm_zero_mean_unit_var(self, rng):
        layer = nn.LayerNorm(8, elementwise_affine=False)
        out = layer(Tensor(rng.standard_normal((5, 8)) * 3 + 2)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_affine_params(self, rng):
        layer = nn.LayerNorm(4)
        layer.bias.data[...] = 5.0
        out = layer(Tensor(rng.standard_normal((3, 4)))).data
        assert abs(out.mean() - 5.0) < 1e-6

    def test_layernorm_gradcheck(self, rng):
        layer = nn.LayerNorm(4)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gradcheck(lambda: (layer(x) ** 2).sum(),
                  [x, layer.weight, layer.bias])

    def test_layernorm_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            nn.LayerNorm(5)(Tensor(rng.standard_normal((2, 4))))

    def test_batchnorm_normalizes_in_train(self, rng):
        layer = nn.BatchNorm1d(6)
        out = layer(Tensor(rng.standard_normal((64, 6)) * 4 + 1)).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_batchnorm_running_stats_used_in_eval(self, rng):
        layer = nn.BatchNorm1d(3, momentum=1.0)
        data = rng.standard_normal((32, 3)) * 2 + 5
        layer(Tensor(data))
        layer.eval()
        out = layer(Tensor(data)).data
        # With momentum 1.0 running stats equal last batch stats (biased var)
        expected = (data - data.mean(0)) / np.sqrt(data.var(0) + 1e-5)
        assert np.allclose(out, expected, atol=1e-6)

    def test_batchnorm_3d_input(self, rng):
        layer = nn.BatchNorm1d(4)
        out = layer(Tensor(rng.standard_normal((8, 4, 10))))
        assert out.shape == (8, 4, 10)

    def test_batchnorm_wrong_features(self, rng):
        with pytest.raises(ValueError):
            nn.BatchNorm1d(3)(Tensor(rng.standard_normal((4, 5))))


class TestDropoutLayers:
    def test_eval_identity(self, rng):
        layer = nn.Dropout(0.5)
        layer.eval()
        x = Tensor(rng.standard_normal(50))
        assert np.allclose(layer(x).data, x.data)

    def test_train_zeroes_fraction(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones(10000))).data
        assert abs((out == 0).mean() - 0.5) < 0.03

    def test_spatial_dropout_zeroes_whole_channels(self):
        layer = nn.SpatialDropout1d(0.5, rng=np.random.default_rng(1))
        out = layer(Tensor(np.ones((8, 16, 20)))).data
        per_channel = out.reshape(-1, 20)
        # Each channel is entirely zero or entirely scaled.
        for row in per_channel:
            assert np.all(row == 0) or np.all(row == row[0])

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(-0.1)
        with pytest.raises(ValueError):
            nn.SpatialDropout1d(1.0)


class TestActivationsModules:
    @pytest.mark.parametrize("layer,fn", [
        (nn.ReLU(), lambda x: np.maximum(x, 0)),
        (nn.Tanh(), np.tanh),
        (nn.Sigmoid(), lambda x: 1 / (1 + np.exp(-x))),
        (nn.LeakyReLU(0.1), lambda x: np.where(x > 0, x, 0.1 * x)),
    ])
    def test_matches_numpy(self, layer, fn, rng):
        x = rng.standard_normal(20)
        assert np.allclose(layer(Tensor(x)).data, fn(x))

    def test_elu_negative_saturation(self):
        out = nn.ELU(alpha=2.0)(Tensor(np.array([-100.0]))).data
        assert np.isclose(out[0], -2.0)
