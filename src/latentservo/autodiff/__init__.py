from .tensor import (
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    add,
    backward,
    exp,
    gaussian_kl,
    log,
    matmul,
    mse,
    mul,
    neg,
    parameter,
    relu,
    reshape,
    scale,
    sigmoid,
    sub,
    tanh,
    tmean,
    tsum,
)
from .nn import conv2d, glorot_uniform, he_uniform, linear, spatial_softmax
from .optim import SGD, Adam
from .gradcheck import finite_diff_check

__all__ = [
    "Adam", "GraphError", "SGD", "ShapeError", "Tape", "Tensor", "add",
    "backward", "conv2d", "exp", "finite_diff_check", "gaussian_kl",
    "glorot_uniform", "he_uniform", "linear", "log", "matmul", "mse", "mul",
    "neg", "parameter", "relu", "reshape", "scale", "sigmoid",
    "spatial_softmax", "sub", "tanh", "tmean", "tsum",
]
