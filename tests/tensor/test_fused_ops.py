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

from repro.baselines import LSTMScorer, WSAELSTM
from repro.core import (RTGCN, RelationalGraphConvolution,
                        TemporalConvolution, TrainConfig, Trainer,
                        TrainerCallback, combined_loss, l2_penalty)
from repro.data import load_market
from repro.graph import RelationMatrix, TimeSensitiveStrategy, make_strategy
from repro.nn import (GRU, LSTM, CausalConv1d, CausalWeightNormConv1d, Conv1d,
                      GRUCell, GraphConv, LSTMCell, Linear)
from repro.tensor import (Tensor, SparsePattern, SparseTensor,
                          affine_act_fused, arena, conv1d, conv1d_fused,
                          dtype_policy, fused_kernels, gcn_propagate_fused,
                          gradcheck, gru_cell_fused, l2_penalty_fused,
                          lstm_cell_fused, lstm_layer_fused, no_grad,
                          rank_loss_fused,
                          tape_node_count, temporal_block_fused,
                          time_adjacency_fused, weight_norm_fused)
from repro.tensor.fused import _relation_scores, _relation_scores_vjp

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


def _with_specials(rng, array, non_finite):
    """``array`` with two whole stocks at +0.0 and -0.0 (axis 1), 10% of
    the other entries at ±0.0 and, if ``non_finite``, one +inf, one -inf
    and one NaN."""
    out = array.copy()
    out[:, 0] = 0.0
    out[:, 1] = -0.0
    flat = out.reshape(-1)
    picked = rng.choice(flat.size, size=flat.size // 10, replace=False)
    flat[picked[::2]] = 0.0
    flat[picked[1::2]] = -0.0
    if non_finite:
        out[(3, 2, 0)] = np.inf
        out[(4, 3, 1)] = -np.inf
        out[(1, 4, 2)] = np.nan
    return out


def _assert_bitwise_nan_aware(fused, composed):
    """Equal values with NaN in the same places, equal sign bits off the
    NaNs (so +0.0 is not -0.0), and the same memory order."""
    for f, c in zip(fused, composed):
        np.testing.assert_array_equal(f, c)
        finite_or_inf = ~np.isnan(c)
        np.testing.assert_array_equal(np.signbit(f)[finite_or_inf],
                                      np.signbit(c)[finite_or_inf])
        assert f.strides == c.strides


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


class TestLSTMLayerFused:
    """``nn.LSTM`` with fusion on: one recurrence node per layer, plus the
    ``outputs`` and ``c`` handles that hand their gradient to it, against
    the composed per-step cells."""

    B, T, D, H = 5, 6, 4, 3

    def _case(self, num_layers, explicit_state, x_grad, dtype=np.float64):
        gen = np.random.default_rng(3)
        lstm = LSTM(self.D, self.H, num_layers=num_layers,
                    rng=np.random.default_rng(0))
        lstm.astype(np.dtype(dtype))

        def array(shape):
            return gen.standard_normal(shape).astype(dtype)

        x = Tensor(array((self.B, self.T, self.D)), requires_grad=x_grad)
        state = None
        leaves = list(lstm.parameters()) + ([x] if x_grad else [])
        if explicit_state:
            state = (Tensor(array((self.B, self.H)), requires_grad=True),
                     Tensor(array((self.B, self.H)), requires_grad=True))
            if num_layers == 1:     # a stacked LSTM ignores the state
                leaves += list(state)
        weights = {"o": Tensor(array((self.B, self.T, self.H))),
                   "h": Tensor(array((self.B, self.H))),
                   "c": Tensor(array((self.B, self.H)))}

        def loss(use):
            outputs, (h, c) = lstm(x, state)
            used = {"o": outputs, "h": h, "c": c}
            total = None
            for name in use:
                term = (used[name] * weights[name]).sum()
                total = term if total is None else total + term
            return total + 1e-3 * l2_penalty(list(lstm.parameters()))

        return lstm, x, state, loss, leaves

    @pytest.mark.parametrize("use", ["o", "h", "c", "ohc"])
    @pytest.mark.parametrize("x_grad", [False, True])
    @pytest.mark.parametrize("explicit_state", [False, True])
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_bitwise_matches_composed(self, num_layers, explicit_state,
                                      x_grad, use):
        """Loss and every gradient, through whichever outputs are used;
        the L2 term reaches each weight after the per-step terms."""
        _, _, _, loss, leaves = self._case(num_layers, explicit_state,
                                           x_grad)
        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
            lambda: loss(use), leaves)
        assert all(g is not None for g in f_grads)
        _compare("float64", f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("direct_first", [True, False])
    def test_bitwise_with_direct_parameter_terms(self, direct_first):
        """Terms on the parameters themselves (an L2 penalty, a product
        with each parameter) add into the same place of every sum as on
        the composed path, whether their backward runs before the
        layer's or after it."""
        lstm, _, _, loss, leaves = self._case(2, True, True)
        params = list(lstm.parameters())
        gen = np.random.default_rng(4)
        scale = [Tensor(gen.standard_normal(p.shape)) for p in params]

        def total():
            direct = 1e-3 * l2_penalty(params)
            for p, k in zip(params, scale):
                direct = direct + (p * k).sum()
            # The root's first operand runs its backward first.
            return direct + loss("ohc") if direct_first \
                else loss("ohc") + direct

        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(total,
                                                               leaves)
        _compare("float64", f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("use", ["o", "ohc"])
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_bitwise_with_buffer_arena(self, num_layers, use):
        """The handles keep their gradient past their own backward, so it
        must not be a buffer the arena hands out again."""
        _, _, _, loss, leaves = self._case(num_layers, True, True)
        with arena(True):
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: loss(use), leaves)
        _compare("float64", f_loss, c_loss, f_grads, c_grads)

    def test_eval_mode_matches_composed(self):
        lstm, _, _, loss, leaves = self._case(2, False, True)
        lstm.eval()
        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
            lambda: loss("ohc"), leaves)
        _compare("float64", f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_no_grad_matches_composed_and_records_nothing(self, num_layers):
        lstm, x, state, _, _ = self._case(num_layers, True, True)
        results = []
        for enabled in (True, False):
            with fused_kernels(enabled), no_grad():
                before = tape_node_count()
                outputs, (h, c) = lstm(x, state)
                assert tape_node_count() == before
            assert h._backward is None and not h.requires_grad
            results.append([outputs.data, h.data, c.data])
        _assert_bitwise_with_strides(*results)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            H = 3
            x = _t(rng, (2, 4, 3))
            h0 = _t(rng, (2, H))
            c0 = _t(rng, (2, H))
            w_ih = _t(rng, (4 * H, 3), scale=0.5)
            w_hh = _t(rng, (4 * H, H), scale=0.5)
            b = _t(rng, (4 * H,))
            proj = Tensor(rng.standard_normal((2, 4, H)))

            def loss():
                outputs, h, c = lstm_layer_fused(x, h0, c0, w_ih, w_hh, b,
                                                 H)
                return (outputs * proj).sum() + (h * h).sum() + c.sum()

            gradcheck(loss, [x, h0, c0, w_ih, w_hh, b])

    def test_gradcheck_only_c_used(self, rng):
        """The recurrence node's backward must run when only ``c`` carries
        a gradient."""
        H = 3
        x = _t(rng, (2, 3, 4))
        h0 = _t(rng, (2, H))
        c0 = _t(rng, (2, H))
        w_ih = _t(rng, (4 * H, 4), scale=0.5)
        w_hh = _t(rng, (4 * H, H), scale=0.5)
        b = _t(rng, (4 * H,))
        gradcheck(lambda: lstm_layer_fused(x, h0, c0, w_ih, w_hh, b, H)[2]
                  .sum(), [x, h0, c0, w_ih, w_hh, b])

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, policy):
        with dtype_policy(policy):
            _, _, _, loss, leaves = self._case(2, False, True, np.float32)
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: loss("ohc"), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_three_tape_nodes_per_layer(self, num_layers):
        lstm, x, state, _, _ = self._case(num_layers, False, True)
        build = lambda: lstm(x)  # noqa: E731
        assert _tape_nodes(build, True) == 3 * num_layers
        assert _tape_nodes(build, False) > 20 * num_layers

    def test_rejects_non_sequence_input(self):
        lstm = LSTM(4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="B, T, D"):
            lstm(Tensor(np.ones((2, 4))))


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

    def test_sequence_bitwise_matches_composed(self, rng):
        """One sigmoid over the r and z slab is elementwise the composed
        cell's two per-gate sigmoids: float64 bits agree over a sequence,
        input gradient included.  With only the final ``h`` used each
        step's ``h`` gradient is a two-term sum on both paths; with the
        per-step outputs in the loss (1 and 2 layers) it has three terms,
        which the fused VJP accumulates in the composed tape's order."""
        x = _t(rng, (5, 6, 4))
        for layers, use_outputs in [(1, False), (1, True), (2, True)]:
            gru = GRU(4, 3, num_layers=layers,
                      rng=np.random.default_rng(0))
            leaves = [x] + list(gru.parameters())

            def loss():
                outputs, h = gru(x)
                return ((outputs * outputs).sum() + (h * h).sum()
                        if use_outputs else (h * h).sum())

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss,
                                                                   leaves)
            _compare("float64", f_loss, c_loss, f_grads, c_grads)


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


    @pytest.mark.parametrize("graph_mode", ["dense", "sparse"])
    @pytest.mark.parametrize("specials", ["signed-zeros", "non-finite"])
    def test_relational_layer_bitwise_with_special_values(
            self, rng, graph_mode, specials):
        """The Eq. 2 layer ``relu(Â(xΘᵀ) + b + xSᵀ)``: values (NaN-aware),
        sign bits and memory order of the output, of every parameter
        gradient and of the input gradient, fused against composed.  Over
        the Eq. 5 adjacency of constant features (the first layer's case)
        and of features that require grad (a later layer's: x also sums
        the Eq. 5 chain's shares, so the layer runs composed), and over
        Eq. 4's, where x sums the propagation's and the skip path's
        shares of the fused node."""
        x_data = _with_specials(rng, rng.standard_normal((5, 12, 4)),
                                specials == "non-finite")
        grad = _with_specials(rng, rng.standard_normal((5, 12, 6)),
                              specials == "non-finite")
        relations = _relations(rng, n=12)
        for strategy, x_grad in [("time", False), ("time", True),
                                 ("weight", True)]:
            layer = RelationalGraphConvolution(
                make_strategy(strategy, relations,
                              rng=np.random.default_rng(0),
                              graph_mode=graph_mode),
                4, 6, rng=np.random.default_rng(1))
            layer.conv.bias.data[::2] = 0.0
            results = []
            for enabled in (True, False):
                layer.zero_grad()
                x = Tensor(x_data, requires_grad=x_grad)
                with fused_kernels(enabled):
                    out = layer(x)
                out.backward(grad)
                results.append([out.data]
                               + [p.grad for p in layer.parameters()]
                               + ([x.grad] if x_grad else []))
            _assert_bitwise_nan_aware(*results)

    @pytest.mark.parametrize("graph_mode", ["dense", "sparse"])
    @pytest.mark.parametrize("strategy", ["uniform", "weight", "time"])
    def test_two_layer_model_bitwise(self, strategy, graph_mode):
        """Two RT-GCN layers: the second Eq. 2 layer's input is the first
        layer's output, whose gradient sums the second layer's
        propagation and skip shares (and, for ``time``, its Eq. 5
        shares).  Loss and every parameter gradient, fused against
        composed, in values and memory order."""
        rng = np.random.default_rng(5)
        model = RTGCN(_relations(rng, n=12), strategy=strategy, num_layers=2,
                      relational_filters=8, dropout=0.0,
                      graph_mode=graph_mode, rng=np.random.default_rng(2))
        x = Tensor(rng.standard_normal((6, 12, 4)))
        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
            lambda: (model(x) ** 2).sum(), list(model.parameters()))
        _assert_bitwise_with_strides([f_loss] + f_grads,
                                     [c_loss] + c_grads)


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
    """Random multi-hot relations: each pair carries each type w.p. 1/2."""
    upper = np.triu_indices(n, 1)
    pair, kind = np.nonzero(rng.random((len(upper[0]), k)) < 0.5)
    return RelationMatrix(n, [f"relation_{i}" for i in range(k)],
                          np.column_stack([upper[0][pair], upper[1][pair],
                                           kind]))


def _adjacency(strategy, features):
    relation, mask = strategy._dense_operands()
    return time_adjacency_fused(features, relation, mask, strategy.weight,
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

    @pytest.mark.parametrize("specials", ["signed-zeros", "non-finite"])
    @pytest.mark.parametrize("bias", [0.3, -0.3])
    def test_bitwise_with_special_values(self, rng, specials, bias):
        """±0.0, ±inf and NaN in the features and the upstream gradient;
        relation weights of both signs, so ``(𝓐w + b)⊙M`` holds -0.0 off
        the mask: values (NaN-aware), sign bits and memory order."""
        strategy = self._strategy(rng, n=40)
        strategy.bias.data[:] = bias
        strategy.weight.data[:] = rng.standard_normal(
            strategy.weight.shape)
        non_finite = specials == "non-finite"
        features = Tensor(_with_specials(
            rng, rng.standard_normal((5, 40, 4)), non_finite))
        grad = _with_specials(rng, rng.standard_normal((5, 40, 40)),
                              non_finite)
        results = []
        for enabled in (True, False):
            strategy.zero_grad()
            with fused_kernels(enabled):
                out = strategy(features)
            out.backward(grad)
            results.append([out.data, strategy.weight.grad,
                            strategy.bias.grad])
        _assert_bitwise_nan_aware(*results)

    @pytest.mark.parametrize("specials", ["none", "signed-zeros",
                                          "non-finite"])
    def test_bitwise_one_stock(self, rng, specials):
        """One stock: every reduction of the degree chain keeps its
        ``(T, 1, 1)`` shape, so none of them allocates on its own.  The
        lone pair is put on the mask, with two of its three relation
        types, so the weight and bias gradients are not all zero."""
        strategy = self._strategy(rng, n=1)
        strategy.weight.data[:] = [0.7, -1.3, 0.4]
        relation, mask = strategy._dense_operands()
        relation.data[...] = [1.0, 0.0, 1.0]
        mask.data[...] = 1.0
        features = rng.standard_normal((5, 1, 4))
        grad = rng.standard_normal((5, 1, 1))
        if specials != "none":
            features[0], features[1, 0, ::2] = 0.0, -0.0
            grad[1], grad[2] = 0.0, -0.0
        if specials == "non-finite":
            features[2, 0, 1], features[3, 0, 2] = np.inf, -np.inf
            features[4, 0, 3] = np.nan
            grad[3] = np.inf
        results = []
        for enabled in (True, False):
            strategy.zero_grad()
            with fused_kernels(enabled):
                out = strategy(Tensor(features))
            out.backward(grad)
            results.append([out.data, strategy.weight.grad,
                            strategy.bias.grad])
        _assert_bitwise_nan_aware(*results)

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

    def test_importance_gemv_matches_einsum_at_nasdaq_shape(self):
        """Eq. 4's ``𝓐w`` and its weight VJP as flat GEMVs are bitwise the
        einsums of the composed path at the NASDAQ-854 shape (K = 138),
        where a 3-D ``rel @ w`` is not.  The random multi-hot relations
        all start at the first 48 stocks, so the other 94% of the 805 MB
        tensor stays untouched zero pages."""
        n, k = 854, 138
        rng = np.random.default_rng(3)
        rel = np.zeros((n, n, k))
        rel[:48] = rng.random((48, n, k)) < 0.05
        weight = rng.uniform(0.5, 1.5, k)
        g_scores = rng.standard_normal((n, n))
        np.testing.assert_array_equal(
            _relation_scores(rel, weight),
            np.einsum("ijk,k->ij", rel, weight, optimize=True))
        np.testing.assert_array_equal(
            _relation_scores_vjp(g_scores, rel),
            np.einsum("ij,ijk->k", g_scores, rel, optimize=True))

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


def _block(cin, cout, stride=1, dilation=1, dropout=0.1, train=True):
    conv = TemporalConvolution(cin, cout, kernel_size=3, stride=stride,
                               dilation=dilation, dropout=dropout,
                               rng=np.random.default_rng(0))
    conv.train(train)
    return conv


def _reseed_dropout(conv):
    # One generator for both, as TemporalBlock builds them: the fused
    # node must draw drop1's mask before drop2's.
    shared = np.random.default_rng(11)
    conv.block.drop1._rng = conv.block.drop2._rng = shared


def _block_run(conv, x_data, grad, enabled):
    """Output, input gradient and every parameter gradient of one
    forward/backward, plus the next dropout draw (RNG consumption).
    Copied in their own memory order: with the arena on, the next run
    recycles the gradient buffers."""
    _reseed_dropout(conv)
    conv.zero_grad()
    leaf = Tensor(x_data, requires_grad=True)
    with fused_kernels(enabled):
        out = conv(leaf * 1.0)
    out.backward(grad)
    arrays = ([out.data, leaf.grad] + [p.grad for p in conv.parameters()]
              + [np.asarray(conv.block.drop2._rng.uniform())])
    return [a.copy(order="K") for a in arrays]


class TestTemporalBlockFused:
    """Bitwise (values and memory order) against the composed chain."""

    CASES = {
        "train-dropout": dict(cin=32, cout=32),
        "p0": dict(cin=32, cout=32, dropout=0.0),
        "eval": dict(cin=32, cout=32, train=False),
        "stride2-downsample": dict(cin=32, cout=32, stride=2),
        "tconv-4to32": dict(cin=4, cout=32),
        "dilation2": dict(cin=32, cout=32, dilation=2),
        "widen-stride2-dilation2": dict(cin=3, cout=5, stride=2,
                                        dilation=2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("grad_layout", ["C", "transposed"])
    @pytest.mark.parametrize("buffer_arena", [False, True])
    def test_bitwise_matches_composed(self, rng, case, grad_layout,
                                      buffer_arena):
        conv = _block(**self.CASES[case])
        # (T, N, C) at the Fig. 5 shape: reductions long enough that
        # another memory order rounds differently.
        x_data = rng.standard_normal((20, 48, conv.in_channels))
        with no_grad(), fused_kernels(False):
            _reseed_dropout(conv)
            shape = conv(Tensor(x_data)).shape
        grad = rng.standard_normal(shape)
        if grad_layout == "transposed":
            # The (N, C, H) memory order of a grad from a later transpose.
            grad = np.ascontiguousarray(grad.transpose(1, 2, 0)) \
                .transpose(2, 0, 1)
        with arena(buffer_arena):
            results = [_block_run(conv, x_data, grad, enabled)
                       for enabled in (True, False)]
        _assert_bitwise_with_strides(*results)

    @pytest.mark.parametrize("case", ["train-dropout", "stride2-downsample",
                                      "widen-stride2-dilation2"])
    @pytest.mark.parametrize("specials", ["signed-zeros", "non-finite"])
    @pytest.mark.parametrize("buffer_arena", [False, True])
    def test_bitwise_with_special_values(self, rng, case, specials,
                                         buffer_arena):
        """±0.0, ±inf and NaN in the input and the upstream gradient, zero
        biases on half the channels (exact ±0 pre-activations) and dropout
        masks with zero entries: values (NaN-aware), sign bits and memory
        order of the output and of every gradient."""
        conv = _block(**dict(self.CASES[case], dropout=0.5))
        for layer in (conv.block.conv1, conv.block.conv2):
            layer.bias.data[::2] = 0.0
        _reseed_dropout(conv)
        assert (conv.block.drop1.draw_mask((48, conv.out_channels, 1))
                == 0).any()
        non_finite = specials == "non-finite"
        x_data = _with_specials(
            rng, rng.standard_normal((20, 48, conv.in_channels)),
            non_finite)
        with no_grad(), fused_kernels(False):
            _reseed_dropout(conv)
            shape = conv(Tensor(x_data)).shape
        grad = _with_specials(rng, rng.standard_normal(shape), non_finite)
        with arena(buffer_arena):
            results = [_block_run(conv, x_data, grad, enabled)
                       for enabled in (True, False)]
        _assert_bitwise_nan_aware(*results)

    @pytest.mark.parametrize("specials", ["none", "signed-zeros",
                                          "non-finite"])
    @pytest.mark.parametrize("buffer_arena", [False, True])
    def test_bitwise_long_rows(self, rng, specials, buffer_arena):
        """240 stocks at T = 20: (N·T) rows of 4,800, five times the
        Fig. 5 shape's and a quarter of NASDAQ-854's."""
        conv = _block(8, 8, dropout=0.5)
        for layer in (conv.block.conv1, conv.block.conv2):
            layer.bias.data[::2] = 0.0
        x_data = rng.standard_normal((20, 240, 8))
        grad = rng.standard_normal((20, 240, 8))
        if specials != "none":
            non_finite = specials == "non-finite"
            x_data = _with_specials(rng, x_data, non_finite)
            grad = _with_specials(rng, grad, non_finite)
        with arena(buffer_arena):
            results = [_block_run(conv, x_data, grad, enabled)
                       for enabled in (True, False)]
        _assert_bitwise_nan_aware(*results)

    @pytest.mark.parametrize("case", ["train-dropout",
                                      "stride2-downsample"])
    def test_fortran_seed_with_retained_graph(self, rng, case):
        """The block as the root, seeded with an F-ordered gradient (the
        root keeps the seed's layout, so its ``(C, N, H)`` view is
        C-contiguous): the root's gradient stays the seed, and a second
        backward over the retained graph, which adds to it, still gives
        the composed gradients."""
        conv = _block(**self.CASES[case])
        x_data = rng.standard_normal((20, 48, conv.in_channels))
        with no_grad(), fused_kernels(False):
            _reseed_dropout(conv)
            shape = conv(Tensor(x_data)).shape
        grad = np.asfortranarray(rng.standard_normal(shape))
        results = []
        for enabled in (True, False):
            _reseed_dropout(conv)
            conv.zero_grad()
            leaf = Tensor(x_data, requires_grad=True)
            with fused_kernels(enabled):
                out = conv(leaf * 1.0)
            run = []
            for _ in range(2):
                out.backward(grad, retain_graph=True)
                run += [a.copy(order="K") for a in
                        [out.grad, leaf.grad]
                        + [p.grad for p in conv.parameters()]]
            results.append(run)
        np.testing.assert_array_equal(results[0][0], grad)
        _assert_bitwise_with_strides(*results)

    def test_no_grad_forward_matches_composed(self, rng):
        conv = _block(4, 32, stride=2)
        x = Tensor(rng.standard_normal((20, 9, 4)))
        outs = []
        for enabled in (True, False):
            _reseed_dropout(conv)
            with fused_kernels(enabled), no_grad():
                outs.append(conv(x))
        _assert_bitwise_with_strides([outs[0].data], [outs[1].data])
        assert outs[0]._backward is None and not outs[0].requires_grad

    def test_one_tape_node(self, rng):
        """The block plus its two weight-norm parents; the composed chain
        also records both transposes, 3 ReLUs, 2 dropout products, the
        residual add and 5 nodes per conv."""
        x = Tensor(rng.standard_normal((20, 9, 32)), requires_grad=True)
        conv = _block(32, 32)
        assert _tape_nodes(lambda: conv(x), True) == 3
        assert _tape_nodes(lambda: conv(x), False) == 30

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (7, 3, 2))
            w1, b1 = _t(rng, (4, 2, 2), 0.5), _t(rng, (4,))
            w2, b2 = _t(rng, (4, 4, 2), 0.5), _t(rng, (4,))
            wd, bd = _t(rng, (4, 2, 1), 0.5), _t(rng, (4,))
            keep = np.array([[[2.0], [0.0], [2.0], [2.0]]] * 3)
            proj = Tensor(rng.standard_normal((4, 3, 4)))
            gradcheck(lambda: (temporal_block_fused(
                x, w1, b1, w2, b2, keep, keep[::-1], wd, bd, stride=2,
                dilation=2) * proj).sum(), [x, w1, b1, w2, b2, wd, bd])

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, rng, policy):
        with dtype_policy(policy):
            conv = _block(4, 32, stride=2)
            conv.astype(np.dtype(np.float32))
            x = _t(rng, (20, 9, 4))
            leaves = [x] + list(conv.parameters())

            def loss():
                _reseed_dropout(conv)
                return (conv(x) ** 2).sum()

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                loss, leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    def test_single_stock_keeps_composed_path(self, rng):
        """A one-stock batch is a degenerate im2col shape."""
        conv = _block(4, 8)
        x = _t(rng, (10, 1, 4))
        assert _tape_nodes(lambda: conv(x), True) > 3
        leaves = [x] + list(conv.parameters())

        def loss():
            _reseed_dropout(conv)
            return (conv(x) ** 2).sum()

        (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss, leaves)
        _compare("float64", f_loss, c_loss, f_grads, c_grads)
        w = Tensor(np.ones((8, 4, 3)))
        with pytest.raises(ValueError, match="composed"):
            temporal_block_fused(x, w, None, Tensor(np.ones((8, 8, 3))),
                                 None)


def _scores_and_labels(rng, n=48):
    return rng.standard_normal(n) * 0.02, rng.standard_normal(n) * 0.02


class TestRankLossFused:
    @pytest.mark.parametrize("alpha", [0.1, 0.0, 1])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_bitwise_matches_composed(self, rng, alpha, weight_decay):
        """Loss and the scores gradient, as the trainer calls it."""
        pred, label = _scores_and_labels(rng)
        head = Tensor(rng.standard_normal(48), requires_grad=True)
        results = []
        for enabled in (True, False):
            leaf = Tensor(pred, requires_grad=True)
            head.zero_grad()
            scores = leaf * 1.0
            with fused_kernels(enabled):
                loss = combined_loss(scores, Tensor(label), alpha,
                                     parameters=[head],
                                     weight_decay=weight_decay)
            loss.backward()
            results.append([np.asarray(loss.data), leaf.grad]
                           + ([head.grad] if weight_decay else []))
        _assert_bitwise_with_strides(*results)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            pred, label = _scores_and_labels(rng, 7)
            scores = Tensor(pred * 50.0, requires_grad=True)
            gradcheck(lambda: rank_loss_fused(scores, Tensor(label * 50.0),
                                              0.3), [scores])

    @pytest.mark.parametrize("policy", ["float32", "mixed"])
    def test_matches_composed_within_tolerance(self, rng, policy):
        with dtype_policy(policy):
            pred, label = _scores_and_labels(rng)
            scores = _t(rng, (48,), 0.02)
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: combined_loss(scores, Tensor(label), 0.1),
                [scores])
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    def test_one_tape_node(self, rng):
        pred, label = _scores_and_labels(rng)
        scores = Tensor(pred, requires_grad=True)
        build = lambda: combined_loss(scores, Tensor(label), 0.1)  # noqa
        assert _tape_nodes(build, True) == 1
        assert _tape_nodes(build, False) == 15

    def test_other_inputs_keep_composed_path(self, rng):
        """One stock, 2-D scores and labels that require grad."""
        one = Tensor(np.ones(1), requires_grad=True)
        assert _tape_nodes(lambda: combined_loss(one, Tensor(np.ones(1)),
                                                 0.1), True) > 1
        wide = Tensor(np.ones((3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="1-D"):
            combined_loss(wide, Tensor(np.ones((3, 2))), 0.1)
        labels = Tensor(np.arange(4.0), requires_grad=True)
        combined_loss(Tensor(np.ones(4)), labels, 0.1).backward()
        assert labels.grad is not None
        with pytest.raises(ValueError, match="labels"):
            rank_loss_fused(Tensor(np.ones(4)), labels, 0.1)


class TestFig5TapeLength:
    """Tape nodes of one training step's forward and loss (the backward
    and optimizer record none) at the Fig. 5 shape."""

    @pytest.mark.parametrize("name,bound", [("RT-GCN (T)", 13),
                                            ("Rank_LSTM", 50),
                                            ("Rank_LSTM", 10)])
    def test_step_tape_within_bound(self, name, bound):
        dataset = load_market("nasdaq-mini", seed=0)
        if name == "Rank_LSTM":
            model = LSTMScorer(rng=np.random.default_rng(1))
        else:
            model = RTGCN(dataset.relations, strategy="time",
                          rng=np.random.default_rng(1))
        config = TrainConfig(window=20)
        day = dataset.split(20)[0][0]
        features = Tensor(dataset.features(day, 20))
        params = list(model.parameters())
        before = tape_node_count()
        combined_loss(model(features), Tensor(dataset.label(day)),
                      config.alpha, parameters=params,
                      weight_decay=config.weight_decay)
        assert tape_node_count() - before <= bound


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

    def test_wsae_lstm_fit_losses_bitwise(self):
        """WSAE-LSTM's LSTM input comes from its autoencoder, so the fused
        layer node's input gradient trains the encoder."""
        dataset = load_market("nasdaq-mini", seed=0)
        per_path = []
        for enabled in (True, False):
            model = WSAELSTM(rng=np.random.default_rng(1))
            config = TrainConfig(window=20, epochs=1, max_train_days=8,
                                 seed=1, fused_kernels=enabled)
            log = _LossLog()
            Trainer(model, dataset, config).fit(callbacks=[log])
            per_path.append(log.losses)
        assert len(per_path[0]) == 8
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
