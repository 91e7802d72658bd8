from .specs import ConfigError, EncoderSpec, Method, TrainConfig, compute_beta
from .models import (
    EncodePlan,
    LatentVector,
    ModelWeights,
    downsample_half,
    encode,
    encode_batch,
    expected_shapes,
    init_params,
    loss,
)
from .train import TrainingDiverged, dataset_frames, train
from .weights_io import WeightFormatError, load, save

__all__ = [
    "ConfigError", "EncodePlan", "EncoderSpec", "LatentVector", "Method", "ModelWeights",
    "TrainConfig", "TrainingDiverged", "WeightFormatError", "compute_beta",
    "dataset_frames", "downsample_half", "encode", "encode_batch",
    "expected_shapes", "init_params", "load", "loss", "save", "train",
]
