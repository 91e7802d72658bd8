"""Exhaustive task-space sampling for field maps."""

from __future__ import annotations

import numpy as np


def grid_positions(grid_n: int) -> np.ndarray:
    """grid_n x grid_n positions uniformly covering the workspace, row-major in y."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    axis = np.linspace(0.0, 1.0, grid_n)
    xs, ys = np.meshgrid(axis, axis)
    return np.stack([xs.ravel(), ys.ravel()], axis=1)
