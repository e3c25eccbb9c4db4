"""Minimal dense-tensor numerics with reverse-mode autodiff.

Exactly the layer set the mortality models need: 1-D convolution,
channel dropout, train-mode batch normalization, the train-mode residual
conv block as one op, masked pooling, bidirectional GRUs, the sigmoid
head as one op, an L2 weight penalty, and the AMSGrad optimizer. Eval
mode is a forward pass under `no_grad`: batch normalization is folded
into the convolution's weights (`fold_batchnorm`), and the convolution
also runs a conv block's residual join, with no backward. Besides
these, only the generic ops of `tensor`: `+`, `-`, `*`, `sum`, `mean`,
`reshape`, indexing and `concat`.
Everything is float64 and deterministic given an explicit RNG.
"""

from .tensor import (
    Tensor,
    parameter,
    concat,
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
    fold_batchnorm,
    conv_block_train,
    global_avg_pool,
    bigru,
    dense_sigmoid,
    l2_penalty,
)
from .optim import AmsGrad
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Tensor",
    "parameter",
    "concat",
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
    "fold_batchnorm",
    "conv_block_train",
    "global_avg_pool",
    "bigru",
    "dense_sigmoid",
    "l2_penalty",
    "AmsGrad",
    "save_checkpoint",
    "load_checkpoint",
]
