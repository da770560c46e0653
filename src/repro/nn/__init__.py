"""Neural-network layer library built on :mod:`repro.tensor`.

Provides the module system plus every layer family the reproduction needs:
affine, 1-D/causal/weight-normalized convolution, temporal residual blocks,
graph convolution and attention, LSTM/GRU/SFM recurrences, normalization,
dropout, and initialization utilities.
"""

from .activation import ELU, LeakyReLU, ReLU, Sigmoid, Tanh
from .container import ModuleList, Sequential
from .conv import (CausalConv1d, CausalWeightNormConv1d, Conv1d,
                   WeightNormConv1d)
from .dropout import Dropout, SpatialDropout1d
from .graph import GraphAttention, GraphConv, set_graph_mode
from .linear import Linear
from .module import LoadStateResult, Module, Parameter
from .norm import BatchNorm1d, LayerNorm
from .random import fork_rng, get_rng, manual_seed
from .recurrent import GRU, GRUCell, LSTM, LSTMCell
from .sfm import SFM, SFMCell
from .temporal import TemporalBlock
from . import init

__all__ = [
    "Module", "Parameter", "LoadStateResult", "Sequential", "ModuleList",
    "Linear", "Conv1d", "CausalConv1d", "WeightNormConv1d",
    "CausalWeightNormConv1d", "TemporalBlock",
    "GraphConv", "GraphAttention", "set_graph_mode",
    "LSTM", "LSTMCell", "GRU", "GRUCell", "SFM", "SFMCell",
    "Dropout", "SpatialDropout1d", "LayerNorm", "BatchNorm1d",
    "ReLU", "LeakyReLU", "Tanh", "Sigmoid", "ELU",
    "init", "manual_seed", "get_rng", "fork_rng",
]
