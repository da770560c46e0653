"""Fused tape nodes: gradcheck and fused-vs-composed equivalence.

Every fused kernel is gated twice, per the equivalence contract of
``repro.tensor.fused``:

- **gradcheck** under both dtype policies (analytic VJPs vs central
  differences, tolerances chosen per dtype);
- **equivalence** against the composed-op path: bitwise under ``float64``
  (identical expression order), tolerance-bounded under ``float32``.
"""

import numpy as np
import pytest

from repro.baselines import LSTMScorer
from repro.core import RTGCN, TrainConfig, Trainer, TrainerCallback, l2_penalty
from repro.data import load_market
from repro.graph import RelationMatrix, TimeSensitiveStrategy
from repro.nn import (CausalConv1d, CausalWeightNormConv1d, Conv1d, GRUCell,
                      GraphConv, LSTMCell, Linear)
from repro.tensor import (Tensor, SparsePattern, SparseTensor,
                          affine_act_fused, conv1d, conv1d_fused,
                          dtype_policy, fused_kernels, gcn_propagate_fused,
                          gradcheck, gru_cell_fused, l2_penalty_fused,
                          lstm_cell_fused, no_grad, tape_node_count,
                          time_adjacency_fused, weight_norm_fused)

#: relative tolerance documented for float32 fused-vs-composed agreement
#: (see docs/performance.md) — rounding differs only through fp32 noise.
FLOAT32_RTOL = 1e-4
FLOAT32_ATOL = 1e-5

POLICIES = ["float64", "float32"]


def _t(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _grads(tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _compare(policy, fused_out, composed_out, fused_grads, composed_grads):
    if policy == "float64":
        np.testing.assert_array_equal(fused_out, composed_out)
        for fg, cg in zip(fused_grads, composed_grads):
            np.testing.assert_array_equal(fg, cg)
    else:
        np.testing.assert_allclose(fused_out, composed_out,
                                   rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        for fg, cg in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(fg, cg, rtol=FLOAT32_RTOL,
                                       atol=FLOAT32_ATOL)


def _assert_bitwise_with_strides(fused, composed):
    for f, c in zip(fused, composed):
        np.testing.assert_array_equal(f, c)
        assert f.strides == c.strides       # same memory order


def _tape_nodes(build, enabled):
    with fused_kernels(enabled):
        before = tape_node_count()
        build()
        return tape_node_count() - before


def _run_both_paths(build_loss, leaves):
    """Loss + grads with fusion on, then off, on the same leaves."""
    results = []
    for enabled in (True, False):
        for leaf in leaves:
            leaf.zero_grad()
        with fused_kernels(enabled):
            loss = build_loss()
        loss.backward()
        results.append((loss.data.copy(), _grads(leaves)))
    return results


class TestAffineActFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (3, 4))
            w = _t(rng, (2, 4))
            b = _t(rng, (2,))
            gradcheck(lambda: affine_act_fused(x, w, b).sum(), [x, w, b])

    @pytest.mark.parametrize("activation",
                             ["identity", "relu", "tanh", "sigmoid",
                              "leaky_relu"])
    def test_gradcheck_activations(self, rng, activation):
        x = _t(rng, (3, 4))
        w = _t(rng, (2, 4))
        # inputs shifted off 0 so relu/leaky_relu kinks don't break the
        # finite-difference comparison
        x.data += 0.05
        gradcheck(lambda: affine_act_fused(x, w, activation=activation)
                  .sum(), [x, w])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_linear(self, rng, policy):
        with dtype_policy(policy):
            layer = Linear(5, 3, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            x = _t(rng, (2, 7, 5))
            leaves = [x, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x) * layer(x)).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestLSTMCellFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            H = 3
            x = _t(rng, (2, 4))
            h0 = _t(rng, (2, H))
            c0 = _t(rng, (2, H))
            w_ih = _t(rng, (4 * H, 4), scale=0.5)
            w_hh = _t(rng, (4 * H, H), scale=0.5)
            b = _t(rng, (4 * H,))

            def loss():
                h, c = lstm_cell_fused(x, h0, c0, w_ih, w_hh, b, H)
                return (h * h).sum() + c.sum()

            gradcheck(loss, [x, h0, c0, w_ih, w_hh, b])

    def test_gradcheck_h_unused(self, rng):
        """The c-node backward must tolerate the h node never receiving a
        gradient (its stash stays ``None``)."""
        H = 3
        x = _t(rng, (2, 4))
        h0 = _t(rng, (2, H))
        c0 = _t(rng, (2, H))
        w_ih = _t(rng, (4 * H, 4), scale=0.5)
        w_hh = _t(rng, (4 * H, H), scale=0.5)
        b = _t(rng, (4 * H,))

        def loss():
            _, c = lstm_cell_fused(x, h0, c0, w_ih, w_hh, b, H)
            return c.sum()

        gradcheck(loss, [x, h0, c0, w_ih, w_hh, b])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_cell(self, rng, policy):
        with dtype_policy(policy):
            cell = LSTMCell(4, 3, rng=np.random.default_rng(0))
            cell.astype(np.dtype(np.float64 if policy == "float64"
                                 else np.float32))
            x = _t(rng, (5, 4))
            h0, c0 = cell.initial_state(5)
            leaves = [x] + list(cell.parameters())

            def loss():
                h, c = cell(x, (h0, c0))
                h, c = cell(x, (h, c))     # two chained steps
                return (h * c).sum()

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss,
                                                                   leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestGRUCellFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            H = 3
            x = _t(rng, (2, 4))
            h0 = _t(rng, (2, H))
            w_ih = _t(rng, (3 * H, 4), scale=0.5)
            w_hh = _t(rng, (3 * H, H), scale=0.5)
            b_ih = _t(rng, (3 * H,))
            b_hh = _t(rng, (3 * H,))
            gradcheck(lambda: (gru_cell_fused(x, h0, w_ih, w_hh, b_ih, b_hh,
                                              H) ** 2).sum(),
                      [x, h0, w_ih, w_hh, b_ih, b_hh])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_cell(self, rng, policy):
        with dtype_policy(policy):
            cell = GRUCell(4, 3, rng=np.random.default_rng(0))
            cell.astype(np.dtype(np.float64 if policy == "float64"
                                 else np.float32))
            x = _t(rng, (5, 4))
            h0 = cell.initial_state(5)
            leaves = [x] + list(cell.parameters())

            def loss():
                h = cell(x, h0)
                h = cell(x, h)
                return (h * h).sum()

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss,
                                                                   leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestGCNPropagateFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck_dense(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (4, 3))
            adj = _t(rng, (4, 4))
            w = _t(rng, (2, 3))
            b = _t(rng, (2,))
            gradcheck(lambda: gcn_propagate_fused(x, adj, w, b).sum(),
                      [x, adj, w, b])

    def test_gradcheck_sparse_values(self, rng):
        mask = rng.random((5, 5)) < 0.5
        np.fill_diagonal(mask, True)
        pattern = SparsePattern.from_mask(mask)
        values = Tensor(rng.standard_normal(pattern.nnz),
                        requires_grad=True)
        x = _t(rng, (5, 3))
        w = _t(rng, (2, 3))
        gradcheck(lambda: gcn_propagate_fused(
            x, SparseTensor(pattern, values), w).sum(), [x, values, w])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_dense(self, rng, policy):
        with dtype_policy(policy):
            layer = GraphConv(3, 2, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            x = _t(rng, (2, 6, 3))          # batched features
            adj = _t(rng, (2, 6, 6))        # batched adjacency, needs grad
            leaves = [x, adj, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x, adj) ** 2).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_sparse(self, rng, policy):
        with dtype_policy(policy):
            layer = GraphConv(3, 2, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            mask = rng.random((6, 6)) < 0.4
            np.fill_diagonal(mask, True)
            pattern = SparsePattern.from_mask(mask)
            values = Tensor(rng.standard_normal(pattern.nnz),
                            requires_grad=True)
            x = _t(rng, (6, 3))
            leaves = [x, values, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x, SparseTensor(pattern, values)) ** 2)
                .sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class _LossLog(TrainerCallback):
    def __init__(self):
        self.losses = []

    def on_batch_end(self, trainer, epoch, day, loss):
        self.losses.append(loss)


class TestConv1dFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (3, 2, 7))
            w = _t(rng, (4, 2, 3), scale=0.5)
            b = _t(rng, (4,))
            gradcheck(lambda: (conv1d_fused(x, w, b, stride=2,
                                            padding=(4, 1), dilation=2)
                               ** 2).sum(), [x, w, b])

    @pytest.mark.parametrize("in_ch,out_ch", [(4, 32), (32, 32), (3, 5)])
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("padding",
                             ["causal", 1, 0, "right", "symmetric"])
    @pytest.mark.parametrize("bias", [True, False])
    def test_bitwise_matches_composed(self, rng, in_ch, out_ch, kernel,
                                      stride, dilation, padding, bias):
        # The gather writes both zero edges of its padded copy.
        span = (kernel - 1) * dilation
        padding = {"causal": (span, 0), "right": (0, span),
                   "symmetric": (span, span)}.get(padding, padding)
        self._check_bitwise(rng, in_ch, out_ch, kernel, stride, dilation,
                            padding, bias)

    def test_bitwise_strided_downsample(self, rng):
        """The TemporalBlock residual: a strided 1×1 conv, 4 → 32."""
        self._check_bitwise(rng, 4, 32, 1, 2, 1, 0, True)

    def test_bitwise_transposed_input_and_gradient(self, rng):
        """TemporalConvolution feeds a (T, N, C) → (N, C, T) view, and
        the upstream gradient need not be C-contiguous."""
        self._check_bitwise(rng, 4, 32, 3, 1, 2, (4, 0), True,
                            transposed_input=True, fortran_grad=True)

    @staticmethod
    def _check_bitwise(rng, in_ch, out_ch, kernel, stride, dilation,
                       padding, bias, transposed_input=False,
                       fortran_grad=False):
        batch, length = 6, 20
        shape = (length, batch, in_ch) if transposed_input \
            else (batch, in_ch, length)
        x_data = rng.standard_normal(shape)
        w_data = rng.standard_normal((out_ch, in_ch, kernel))
        b_data = rng.standard_normal(out_ch) if bias else None
        results = []
        for conv in (conv1d_fused, conv1d):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            b = None if b_data is None else Tensor(b_data,
                                                   requires_grad=True)
            inp = x.transpose(1, 2, 0) if transposed_input else x
            # A non-leaf weight, as under weight norm: its retained
            # gradient keeps the layout the conv handed it (the arena is
            # off, so accumulation copies preserve memory order), and the
            # weight-norm reductions downstream sum in that order.
            weight = w * 1.0
            out = conv(inp, weight, b, stride=stride, padding=padding,
                       dilation=dilation)
            grad = np.random.default_rng(7).standard_normal(out.shape)
            if fortran_grad:
                grad = np.asfortranarray(grad)
            out.backward(grad, retain_graph=True)
            results.append(([out.data, weight.grad, x.grad, w.grad]
                            + ([] if b is None else [b.grad])))
        for fused, composed in zip(*results):
            np.testing.assert_array_equal(fused, composed)
            assert fused.strides == composed.strides    # same memory order

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, rng, policy):
        with dtype_policy(policy):
            layer = CausalWeightNormConv1d(4, 32, 3, dilation=2,
                                           rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float32))
            x = _t(rng, (6, 4, 20))
            leaves = [x] + list(layer.parameters())
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x) ** 2).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    def test_one_tape_node_per_conv(self, rng):
        layer = CausalConv1d(4, 8, 3, rng=np.random.default_rng(0))
        x = _t(rng, (6, 4, 20))

        def nodes(enabled):
            with fused_kernels(enabled):
                before = tape_node_count()
                layer(x)
                return tape_node_count() - before

        assert nodes(True) == 1
        assert nodes(False) == 5

    def test_degenerate_shapes_match_composed(self, rng):
        """Batch 1 and a 1-channel 1×1 conv defer to the composed path."""
        for batch, in_ch, kernel in [(1, 4, 3), (5, 1, 1)]:
            layer = Conv1d(in_ch, 3, kernel, rng=np.random.default_rng(0))
            x = _t(rng, (batch, in_ch, 9))
            leaves = [x, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x) ** 2).sum(), leaves)
            _compare("float64", f_loss, c_loss, f_grads, c_grads)

    def test_rtgcn_fit_losses_bitwise(self):
        """The Fig. 5 shape end to end: nasdaq-mini, T=20, 32 channels,
        the default weight decay (every fused node of RT-GCN (T) is on).

        Layout slips show up only rarely in a loss (a C-contiguous weight
        gradient first moves one at step 425 of the 1100-step benchmark
        fit), so the per-op tests above pin memory order directly; this
        fit checks the layers compose.
        """
        dataset = load_market("nasdaq-mini", seed=0)
        per_path = []
        for enabled in (True, False):
            model = RTGCN(dataset.relations, strategy="time",
                          rng=np.random.default_rng(1))
            config = TrainConfig(window=20, epochs=1, max_train_days=20,
                                 seed=1, fused_kernels=enabled)
            log = _LossLog()
            Trainer(model, dataset, config).fit(callbacks=[log])
            per_path.append(log.losses)
        assert len(per_path[0]) == 20
        assert per_path[0] == per_path[1]


def _relations(rng, n=7, k=3):
    """A random symmetric multi-hot relation tensor without self-loops."""
    tensor = np.zeros((n, n, k))
    upper = np.triu_indices(n, 1)
    tensor[upper] = rng.random((len(upper[0]), k)) < 0.5
    return RelationMatrix(tensor + tensor.transpose(1, 0, 2))


def _adjacency(strategy, features):
    return time_adjacency_fused(features, strategy._relation_tensor,
                                strategy._mask_tensor, strategy.weight,
                                strategy.bias)


class TestTimeAdjacencyFused:
    @staticmethod
    def _strategy(rng, graph_mode="dense", n=7):
        strategy = TimeSensitiveStrategy(_relations(rng, n=n),
                                         rng=np.random.default_rng(0),
                                         graph_mode=graph_mode)
        strategy.bias.data[:] = 0.3
        return strategy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            strategy = self._strategy(rng)
            features = Tensor(rng.standard_normal((3, 7, 4)))
            proj = Tensor(rng.standard_normal((3, 7, 7)))
            gradcheck(lambda: (_adjacency(strategy, features) * proj).sum(),
                      [strategy.weight, strategy.bias])

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_bitwise_matches_composed(self, rng, layout):
        # Large enough that a reduction in another order rounds apart.
        strategy = self._strategy(rng, n=40)
        features = Tensor(rng.standard_normal((5, 40, 4)))
        grad = rng.standard_normal((5, 40, 40))
        if layout == "F":
            grad = np.asfortranarray(grad)
        results = []
        for enabled in (True, False):
            strategy.zero_grad()
            with fused_kernels(enabled):
                out = strategy(features)
            out.backward(grad)
            results.append([out.data, strategy.weight.grad,
                            strategy.bias.grad])
        _assert_bitwise_with_strides(*results)

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, rng, policy):
        with dtype_policy(policy):
            strategy = self._strategy(rng)
            features = Tensor(rng.standard_normal((5, 7, 4)))
            leaves = [strategy.weight, strategy.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (strategy(features) ** 2).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    def test_one_tape_node(self, rng):
        strategy = self._strategy(rng)
        features = Tensor(rng.standard_normal((3, 7, 4)))
        assert _tape_nodes(lambda: strategy(features), True) == 1
        assert _tape_nodes(lambda: strategy(features), False) == 14

    def test_features_requiring_grad_keep_composed_path(self, rng):
        strategy = self._strategy(rng)
        features = Tensor(rng.standard_normal((3, 7, 4)),
                          requires_grad=True)
        with pytest.raises(ValueError, match="features"):
            _adjacency(strategy, features)
        grads = []
        for enabled in (True, False):
            features.zero_grad()
            strategy.zero_grad()
            assert _tape_nodes(lambda: strategy(features), enabled) > 1
            with fused_kernels(enabled):
                (strategy(features) ** 2).sum().backward()
            grads.append([features.grad, strategy.weight.grad,
                          strategy.bias.grad])
        _assert_bitwise_with_strides(*grads)

    def test_sparse_mode_unchanged(self, rng):
        strategy = self._strategy(rng, graph_mode="sparse")
        features = Tensor(rng.standard_normal((3, 7, 4)))
        counts = [_tape_nodes(lambda: strategy(features), enabled)
                  for enabled in (True, False)]
        assert counts[0] == counts[1] > 1
        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
            lambda: (strategy(features).values ** 2).sum(),
            [strategy.weight, strategy.bias])
        _compare("float64", f_loss, c_loss, f_grads, c_grads)

    def test_no_grad_forward_matches_composed(self, rng):
        strategy = self._strategy(rng)
        features = Tensor(rng.standard_normal((3, 7, 4)))
        outs = []
        for enabled in (True, False):
            with fused_kernels(enabled), no_grad():
                outs.append(strategy(features))
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
        # No recorded closure: nothing the VJP would read stays alive.
        assert outs[0]._backward is None and not outs[0].requires_grad


class TestWeightNormFused:
    @staticmethod
    def _layer(dtype=np.float64):
        layer = CausalWeightNormConv1d(4, 6, 3,
                                       rng=np.random.default_rng(0))
        layer.astype(np.dtype(dtype))
        return layer

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            g = _t(rng, (6, 1, 1))
            v = _t(rng, (6, 4, 3))
            proj = Tensor(rng.standard_normal((6, 4, 3)))
            gradcheck(lambda: (weight_norm_fused(g, v) * proj).sum(), [g, v])

    def test_bitwise_matches_composed(self, rng):
        """The upstream gradient arrives in the fused conv's ``dW`` layout
        (a transposed view), and the g·v and norm reductions sum in it."""
        layer = self._layer()
        grad = rng.standard_normal((4, 3, 6)).transpose(2, 0, 1)
        results = []
        for enabled in (True, False):
            layer.zero_grad()
            with fused_kernels(enabled):
                weight = layer._weight()
            weight.backward(grad)
            results.append([weight.data, layer.weight_g.grad,
                            layer.weight_v.grad])
        _assert_bitwise_with_strides(*results)

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, rng, policy):
        with dtype_policy(policy):
            layer = self._layer(np.float32)
            leaves = [layer.weight_g, layer.weight_v]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer._weight() ** 2).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    def test_one_tape_node(self):
        layer = self._layer()
        assert _tape_nodes(layer._weight, True) == 1
        assert _tape_nodes(layer._weight, False) == 6

    def test_no_grad_forward_matches_composed(self):
        layer = self._layer()
        outs = []
        for enabled in (True, False):
            with fused_kernels(enabled), no_grad():
                outs.append(layer._weight())
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
        assert outs[0]._backward is None


class TestL2PenaltyFused:
    @staticmethod
    def _params(rng, dtype=np.float64):
        shapes = [(4, 3), (5,), (1,), (2, 3, 2)]
        params = [Tensor(rng.standard_normal(shape).astype(dtype),
                         requires_grad=True) for shape in shapes]
        # A transposed parameter: each grad·p contribution follows its
        # layout.
        params.append(Tensor(rng.standard_normal((3, 4)).astype(dtype).T,
                             requires_grad=True))
        return params

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            # gradcheck perturbs contiguous data in place
            params = self._params(rng)[:-1]
            gradcheck(lambda: l2_penalty_fused(params), params)

    @pytest.mark.parametrize("policy", ["float64", "mixed"])
    def test_bitwise_after_model_contributions(self, rng, policy):
        """A model term reaches each parameter first, then the two L2
        terms; adding them in another order rounds differently.  The mixed
        policy accumulates the sums wide, exactly as Tensor.sum does."""
        dtype = np.float64 if policy == "float64" else np.float32
        with dtype_policy(policy):
            params = self._params(rng, dtype)
            scale = [Tensor(rng.standard_normal(p.shape).astype(dtype))
                     for p in params]

            def loss():
                model = None
                for p, w in zip(params, scale):
                    term = (p * w).sum()
                    model = term if model is None else model + term
                return model + 1e-3 * l2_penalty(params)

            results = []
            for enabled in (True, False):
                for p in params:
                    p.zero_grad()
                with fused_kernels(enabled):
                    out = loss()
                out.backward()
                results.append([out.data] + [p.grad for p in params])
        _assert_bitwise_with_strides(*results)

    def test_float32_within_tolerance(self, rng):
        with dtype_policy("float32"):
            params = self._params(rng, np.float32)
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: l2_penalty(params), params)
            _compare("float32", f_loss, c_loss, f_grads, c_grads)

    def test_one_tape_node(self, rng):
        params = self._params(rng)
        assert _tape_nodes(lambda: l2_penalty(params), True) == 1
        assert _tape_nodes(lambda: l2_penalty(params), False) \
            == 3 * len(params) - 1

    def test_no_grad_forward_matches_composed(self, rng):
        params = self._params(rng)
        outs = []
        for enabled in (True, False):
            with fused_kernels(enabled), no_grad():
                outs.append(l2_penalty(params))
        np.testing.assert_array_equal(outs[0].data, outs[1].data)
        assert outs[0]._backward is None

    @pytest.mark.parametrize("enabled", [True, False])
    def test_no_parameters_rejected(self, enabled):
        with fused_kernels(enabled), pytest.raises(ValueError,
                                                   match="no parameters"):
            l2_penalty([])


class TestFusedFitParity:
    def test_rank_lstm_fit_losses_bitwise(self):
        """Rank_LSTM at the Fig. 5 shape with the default weight decay:
        the fused LSTM cells and L2 node against the composed ops."""
        dataset = load_market("nasdaq-mini", seed=0)
        per_path = []
        for enabled in (True, False):
            model = LSTMScorer(rng=np.random.default_rng(1))
            config = TrainConfig(window=20, epochs=1, max_train_days=20,
                                 seed=1, fused_kernels=enabled)
            assert config.weight_decay > 0
            log = _LossLog()
            Trainer(model, dataset, config).fit(callbacks=[log])
            per_path.append(log.losses)
        assert len(per_path[0]) == 20
        assert per_path[0] == per_path[1]


class TestFusedSwitch:
    def test_context_restores(self):
        from repro.tensor import fused_enabled
        assert fused_enabled()
        with fused_kernels(False):
            assert not fused_enabled()
            with fused_kernels(True):
                assert fused_enabled()
            assert not fused_enabled()
        assert fused_enabled()

    def test_fused_shortens_tape(self, rng):
        from repro.tensor import tape_node_count
        cell = LSTMCell(4, 8, rng=np.random.default_rng(0))
        x = _t(rng, (2, 4))

        def nodes(enabled):
            with fused_kernels(enabled):
                before = tape_node_count()
                h, c = cell(x, cell.initial_state(2))
                (h * c).sum().backward()
                return tape_node_count() - before

        assert nodes(True) < nodes(False)
