"""Encoder/training configuration and the alpha -> beta rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class Method(enum.Enum):
    AE = "ae"
    VAE = "vae"
    BVAE = "bvae"
    SAE = "sae"


METHOD_TAGS = {Method.AE: 0, Method.VAE: 1, Method.BVAE: 2, Method.SAE: 3}
TAG_METHODS = {v: k for k, v in METHOD_TAGS.items()}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def compute_beta(alpha: float, dim_input: int, dim_z: int) -> float:
    """KL weight from the normalized hyperparameter: beta = alpha * dim_input / dim_z."""
    if not (alpha > 0 and dim_input > 0 and dim_z > 0):
        raise ConfigError(
            f"compute_beta needs positive inputs, got alpha={alpha}, "
            f"dim_input={dim_input}, dim_z={dim_z}")
    return alpha * dim_input / dim_z


@dataclass(frozen=True)
class EncoderSpec:
    """One representation method plus everything needed to rebuild its net."""

    method: Method
    image_size: int = 32
    latent_dim: int = 50          # AE/VAE/BVAE bottleneck width
    sae_channels: int = 8         # SAE feature maps; latent is 2 per channel
    alpha: Optional[float] = None  # BVAE only
    hidden: Tuple[int, ...] = (256, 64)
    sae_conv1_channels: int = 8
    sae_decoder_hidden: int = 64
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.method, Method):
            object.__setattr__(self, "method", Method(self.method))
        dim_in = self.image_size * self.image_size
        if self.latent < 1 or self.latent >= dim_in:
            raise ConfigError(
                f"latent dim {self.latent} must be in [1, {dim_in}) — the "
                f"representation must be more compact than the image")
        if self.method is Method.BVAE:
            if self.alpha is None or not self.alpha > 0:
                raise ConfigError("BVAE requires alpha > 0")
        elif self.alpha is not None:
            raise ConfigError(f"alpha is a BVAE hyperparameter, not {self.method.value}")
        if len(self.hidden) != 2 or min(self.hidden) < 1:
            raise ConfigError(f"hidden must be two positive widths, got {self.hidden}")
        if self.method is Method.SAE and self.sae_channels < 1:
            raise ConfigError("SAE needs at least one feature channel")
        if self.method is Method.SAE and self.image_size % 2:
            # its reconstruction target is the image pooled 2x2
            raise ConfigError(f"SAE needs an even image size, got {self.image_size}")
        if min(self.sae_conv1_channels, self.sae_decoder_hidden) < 1:
            raise ConfigError("SAE conv1_channels and decoder_hidden must be >= 1")
        if not self.temperature > 0:
            raise ConfigError("spatial-softmax temperature must be > 0")

    @property
    def latent(self) -> int:
        if self.method is Method.SAE:
            return 2 * self.sae_channels  # coordinates always come in pairs
        return self.latent_dim

    @property
    def input_dim(self) -> int:
        return self.image_size * self.image_size

    def beta(self) -> float:
        """Resolved KL weight: 1 for VAE, Eq-style normalization for BVAE."""
        if self.method is Method.VAE:
            return 1.0
        if self.method is Method.BVAE:
            return compute_beta(self.alpha, self.input_dim, self.latent)
        raise ConfigError(f"{self.method.value} has no KL term")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not self.learning_rate > 0:
            raise ConfigError(
                f"epochs, batch_size, learning_rate must be positive, got "
                f"{self.epochs}, {self.batch_size}, {self.learning_rate}")
