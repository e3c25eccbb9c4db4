"""Minimal dense-tensor numerics with reverse-mode autodiff.

Exactly the layer set the mortality models need: 1-D convolution,
channel dropout, batch normalization, masked pooling, bidirectional
GRUs, a sigmoid head, an L2 weight penalty, and the AMSGrad optimizer.
Everything is float64 and deterministic given an explicit RNG.
"""

from .tensor import (
    Tensor,
    parameter,
    constant,
    concat,
    stack,
    no_grad,
    backward,
)
from .layers import (
    Conv1dParams,
    BatchNormParams,
    GruDirectionParams,
    BiGruParams,
    DenseParams,
    conv1d,
    spatial_dropout,
    batchnorm,
    global_avg_pool,
    gru_step,
    bigru,
    dense,
    dense_sigmoid,
    l2_penalty,
)
from .optim import AmsGrad
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "concat",
    "stack",
    "no_grad",
    "backward",
    "Conv1dParams",
    "BatchNormParams",
    "GruDirectionParams",
    "BiGruParams",
    "DenseParams",
    "conv1d",
    "spatial_dropout",
    "batchnorm",
    "global_avg_pool",
    "gru_step",
    "bigru",
    "dense",
    "dense_sigmoid",
    "l2_penalty",
    "AmsGrad",
    "save_checkpoint",
    "load_checkpoint",
]
