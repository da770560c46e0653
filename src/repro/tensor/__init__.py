"""NumPy-backed reverse-mode autodiff engine.

This package replaces PyTorch's autograd for the reproduction: it provides
the :class:`Tensor` type with a dynamic computation graph, a functional ops
layer (:mod:`repro.tensor.ops`), gradient-mode switches, and numerical
gradient checking used to validate every model component.
"""

from .arena import (arena, arena_enabled, arena_stats, clear_arena,
                    enable_arena, reset_arena, retain_heap)
from .dtype import (DtypePolicy, accum_dtype, default_dtype, dtype_policy,
                    get_dtype_policy, set_default_dtype)
from .fused import (affine_act_fused, conv1d_fused, fused_enabled,
                    fused_kernels, gcn_propagate_fused, gru_cell_fused,
                    l2_penalty_fused, lstm_cell_fused, lstm_layer_fused,
                    rank_loss_fused, set_fused_enabled, temporal_block_fused,
                    time_adjacency_fused, weight_norm_fused)
from .grad_mode import (enable_grad, inference_mode, is_grad_enabled,
                        no_grad, set_grad_enabled, tape_node_count)
from .gradcheck import gradcheck, numerical_gradient
from .ops import (binary_cross_entropy, conv1d, cross_entropy, dropout, elu,
                  huber_loss, l1_loss, leaky_relu, linear, log_softmax,
                  mse_loss, one_hot, relu, sigmoid, softmax, tanh)
from .sparse import (SparsePattern, SparseTensor, sddmm, sparse_gather,
                     sparse_segment_sum, spmm)
from .tensor import (Tensor, concat, einsum, ensure_tensor, maximum, stack,
                     where)

__all__ = [
    "Tensor", "concat", "stack", "where", "maximum", "einsum", "ensure_tensor",
    "DtypePolicy", "dtype_policy", "set_default_dtype", "get_dtype_policy",
    "default_dtype", "accum_dtype",
    "arena", "enable_arena", "arena_enabled", "arena_stats", "reset_arena",
    "clear_arena", "retain_heap",
    "fused_kernels", "set_fused_enabled", "fused_enabled",
    "affine_act_fused", "lstm_cell_fused", "lstm_layer_fused",
    "gru_cell_fused", "gcn_propagate_fused", "conv1d_fused",
    "time_adjacency_fused", "weight_norm_fused", "l2_penalty_fused",
    "temporal_block_fused", "rank_loss_fused",
    "SparsePattern", "SparseTensor", "spmm", "sddmm", "sparse_gather",
    "sparse_segment_sum",
    "no_grad", "enable_grad", "inference_mode", "is_grad_enabled",
    "set_grad_enabled", "tape_node_count",
    "gradcheck", "numerical_gradient",
    "softmax", "log_softmax", "relu", "sigmoid", "tanh", "leaky_relu", "elu",
    "dropout", "conv1d", "linear", "one_hot",
    "mse_loss", "l1_loss", "huber_loss", "binary_cross_entropy",
    "cross_entropy",
]
