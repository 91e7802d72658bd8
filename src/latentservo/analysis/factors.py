"""Time-varying factor extraction and the index-projection operator.

A dimension counts as time-varying when its temporal spread (mean over
demos of the per-demo standard deviation) reaches a fraction ``tau`` of
the most-varying dimension's spread. The threshold is relative, so the
rule is scale-free across methods with very different latent magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..representations import Method
from .taskmap import TaskMap

DEFAULT_TAU = 0.2


@dataclass
class FactorSet:
    indices: Tuple[int, ...]     # sorted, unique latent dims
    tau: float
    spreads: np.ndarray          # per-dim temporal spread score
    all_constant: bool = False   # warning flag: every spread was zero

    def __post_init__(self):
        self.indices = tuple(sorted(set(int(i) for i in self.indices)))
        self.spreads = np.asarray(self.spreads, dtype=np.float64)
        if any(i < 0 or i >= self.spreads.size for i in self.indices):
            raise ValueError("factor index outside latent dimensionality")

    def __len__(self) -> int:
        return len(self.indices)


def extract_time_varying(maps: Sequence[TaskMap], tau: float = DEFAULT_TAU) -> FactorSet:
    """Select dimensions whose spread reaches tau times the maximum spread."""
    if not maps:
        raise ValueError("extract_time_varying needs at least one task map")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    d = maps[0].latent_dim
    for m in maps:
        if m.latent_dim != d:
            raise ValueError("task maps disagree on latent dimensionality")
    spreads = np.mean([m.values.astype(np.float64).std(axis=0) for m in maps], axis=0)
    top = spreads.max()
    if top <= 0.0:
        return FactorSet(indices=(), tau=tau, spreads=spreads, all_constant=True)
    indices = tuple(int(i) for i in np.flatnonzero(spreads >= tau * top))
    return FactorSet(indices=indices, tau=tau, spreads=spreads)


def project(latent: np.ndarray, factors: FactorSet) -> np.ndarray:
    """Restrict a latent vector (or row-stack) to the factor indices.

    Idempotent: a vector already of factor length passes through
    unchanged, so projecting a difference of projected vectors is legal.
    """
    arr = np.asarray(latent)
    k = len(factors)
    if arr.shape[-1] == k:
        return arr
    if arr.shape[-1] != factors.spreads.size:
        raise ValueError(
            f"cannot project length-{arr.shape[-1]} vector with a factor set "
            f"over {factors.spreads.size} dims")
    return arr[..., list(factors.indices)]


def select_sae_pair(factors: FactorSet) -> Tuple[int, int]:
    """Lowest-indexed complete (x, y) coordinate pair in the factor set."""
    present = set(factors.indices)
    for i in factors.indices:
        if i % 2 == 0 and i + 1 in present:
            return (i, i + 1)
    raise ValueError(
        f"no aligned coordinate pair among factor indices {list(factors.indices)}")


def select_control_factors(factors: FactorSet, dof: int, method: Method) -> FactorSet:
    """Reduce a factor set to the dof-sized subset used for control.

    SAE keeps its first complete coordinate pair; other methods keep the
    dof most-varying dimensions. Raises when not enough factors exist.
    """
    if len(factors) < dof:
        raise ValueError(
            f"need at least {dof} time-varying factors for control, "
            f"have {len(factors)}")
    if method is Method.SAE:
        if dof != 2:
            raise ValueError("SAE pair selection serves 2-dof tasks")
        chosen = select_sae_pair(factors)
    else:
        order = sorted(factors.indices, key=lambda i: -factors.spreads[i])
        chosen = tuple(sorted(order[:dof]))
    return FactorSet(indices=chosen, tau=factors.tau, spreads=factors.spreads)


def variance_smoothness(v: np.ndarray) -> float:
    """1 / (1 + total second-difference magnitude) of a variance trajectory."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size < 3:
        raise ValueError("smoothness needs at least 3 samples")
    churn = np.abs(v[2:] - 2.0 * v[1:-1] + v[:-2]).sum()
    return 1.0 / (1.0 + churn)


def alpha_score(tm: TaskMap) -> float:
    """Smoothness of a task map's predicted variance; in (0, 1], higher is smoother.

    Uses v_t = mean over dims of the predicted sigma at step t and
    penalizes its total second-difference magnitude.
    """
    if tm.sigmas is None:
        raise ValueError("alpha_score needs a task map with predicted variance")
    if len(tm) < 3:
        raise ValueError("alpha_score needs at least 3 frames")
    return variance_smoothness(tm.sigmas.astype(np.float64).mean(axis=1))
