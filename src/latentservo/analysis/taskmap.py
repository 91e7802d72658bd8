"""Task maps: latent values over demonstration time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..representations import ModelWeights, encode_batch
from ..toyenv import DemoSequence


@dataclass
class TaskMap:
    """Rows are time steps, columns are latent dimensions."""

    values: np.ndarray           # (T+1, d) float32
    sigmas: np.ndarray | None    # (T+1, d) for the VAE family

    @property
    def latent_dim(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.values.shape[0]


def build_task_map(model: ModelWeights, demo: DemoSequence) -> TaskMap:
    values, sigmas = encode_batch(model, demo.frames)
    return TaskMap(values=values, sigmas=sigmas)
