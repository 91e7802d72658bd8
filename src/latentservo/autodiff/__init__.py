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
from .nn import (
    ConvPlan,
    conv2d,
    coord_grids,
    expected_coords,
    glorot_uniform,
    grid_readout,
    he_uniform,
    linear,
    softmax_probs,
    spatial_softmax,
)
from .optim import SGD, Adam
from .gradcheck import finite_diff_check

__all__ = [
    "Adam", "ConvPlan", "GraphError", "SGD", "ShapeError", "Tape", "Tensor",
    "add", "backward", "conv2d", "coord_grids", "exp", "expected_coords",
    "finite_diff_check", "gaussian_kl", "glorot_uniform", "grid_readout",
    "he_uniform", "linear", "log", "matmul", "mse", "mul", "neg", "parameter",
    "relu", "reshape", "scale", "sigmoid", "softmax_probs", "spatial_softmax",
    "sub", "tanh", "tmean", "tsum",
]
