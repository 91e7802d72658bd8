"""Task-space field maps and their control-relevant geometry metrics.

A field map samples the whole 2D task space on a uniform grid and stores
the time-varying factor values at every cell: the learned analogue of the
position -> feature mapping a servo controller relies on. Smoothness is
probed by rank correlation along grid lines; injectivity by counting
far-apart cells that collide in factor space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..toyenv import grid_positions
from .factors import FactorSet


@dataclass
class LatentFieldMap:
    grid_n: int
    positions: np.ndarray    # (grid_n^2, 2), row-major in y
    values: np.ndarray       # (grid_n^2, k) factor values per cell
    factors: FactorSet

    def __post_init__(self):
        n2 = self.grid_n * self.grid_n
        if self.positions.shape != (n2, 2):
            raise ValueError(f"positions must be ({n2}, 2)")
        if self.values.shape[0] != n2:
            raise ValueError("one value row per grid cell required")

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def spacing(self) -> float:
        return 1.0 / (self.grid_n - 1)

    def grid_view(self) -> np.ndarray:
        """Values as (grid_n, grid_n, k) indexed [iy, ix]."""
        return self.values.reshape(self.grid_n, self.grid_n, self.k)


# The grid is read in this many chunks. A chunk bounds the frames held in
# memory at once, and the split is part of the result: a BVAE frame encoded
# in another batch can differ in its last bits (by up to about 2e-7).
FIELD_MAP_CHUNKS = 4


def build_field_map(sensor: Callable[[np.ndarray], np.ndarray], factors: FactorSet,
                    grid_n: int) -> LatentFieldMap:
    """Read every grid cell through a sensor onto ``factors``: (N, 2) -> (N, k)."""
    if len(factors) == 0:
        raise ValueError("field map needs a non-empty factor set")
    positions = grid_positions(grid_n)
    values = np.concatenate(
        [sensor(chunk) for chunk in np.array_split(positions, FIELD_MAP_CHUNKS)])
    return LatentFieldMap(grid_n=grid_n, positions=positions, values=values,
                          factors=factors)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``; tied values share the mean of their ranks."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(np.append(first, v.size))
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def _line_rho(coord_ranks: np.ndarray, vals: np.ndarray) -> float:
    """Spearman rank correlation of ``vals`` with the coordinate whose
    ranks are given; 0 for a constant line or one with a NaN."""
    if np.isnan(vals).any() or np.ptp(vals) == 0.0:
        return 0.0
    ranks = np.column_stack((coord_ranks, _average_ranks(vals)))
    rho = np.corrcoef(ranks, rowvar=False)[1, 0]
    return 0.0 if math.isnan(rho) else float(rho)


@dataclass
class MonotonicityReport:
    per_factor_x: np.ndarray  # mean signed rho along x lines, per factor
    per_factor_y: np.ndarray
    x: float                  # best-aligned factor's |rho| for the x axis
    y: float


def monotonicity_metric(field: LatentFieldMap) -> MonotonicityReport:
    """Rank correlation of each factor with each workspace axis along grid lines."""
    if field.grid_n < 4:
        raise ValueError("monotonicity needs grid_n >= 4")
    g = field.grid_view().astype(np.float64)
    n = field.grid_n
    ranks = np.arange(1, n + 1, dtype=np.float64)  # a grid line's cell indices, ranked
    per_x = np.empty(field.k)
    per_y = np.empty(field.k)
    for f in range(field.k):
        per_x[f] = np.mean([_line_rho(ranks, g[iy, :, f]) for iy in range(n)])
        per_y[f] = np.mean([_line_rho(ranks, g[:, ix, f]) for ix in range(n)])
    return MonotonicityReport(per_factor_x=per_x, per_factor_y=per_y,
                              x=float(np.abs(per_x).max()),
                              y=float(np.abs(per_y).max()))


def injectivity_metric(field: LatentFieldMap, eps: float) -> float:
    """Fraction of cell pairs that collide in factor space yet sit far apart.

    A collision is z-distance < eps with task-space distance beyond four
    grid spacings. Such a pair is also within eps on factor 0, so candidate
    pairs come from a sweep over the cells sorted on that factor, never an
    all-pairs scan.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    order = np.argsort(field.values[:, 0], kind="stable")
    z = field.values.astype(np.float64)[order]
    pos = field.positions[order]
    n = z.shape[0]
    far = 4.0 * field.spacing
    # sorted cells i .. i + reach[i] - 1 lie within eps of cell i on factor 0
    reach = np.searchsorted(z[:, 0], z[:, 0] + eps, side="right") - np.arange(n)
    collisions = 0
    for d in range(1, int(reach.max())):
        i = np.flatnonzero(reach > d)
        zd = np.linalg.norm(z[i] - z[i + d], axis=1)
        pd = np.linalg.norm(pos[i] - pos[i + d], axis=1)
        collisions += int(np.count_nonzero((zd < eps) & (pd > far)))
    return collisions / (n * (n - 1) // 2)


def suggest_collision_eps(field: LatentFieldMap, fraction: float = 0.02) -> float:
    """Collision radius as a fraction of the factor-value bounding-box diagonal."""
    ranges = np.ptp(field.values.astype(np.float64), axis=0)
    diag = float(np.linalg.norm(ranges))
    if diag == 0.0:
        return 1e-6  # degenerate map: any positive radius collides everything
    return fraction * diag
