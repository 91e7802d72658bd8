"""Uncalibrated visual servoing: exploratory Jacobian, damped step, Broyden update.

The Jacobian maps action increments to factor changes; it is estimated by
central-difference exploration, used through a damped least-squares law,
and refined online with rank-1 secant updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..toyenv import TaskSpec, WorldState, clip_action, step
from .sensors import Sensor

DEGENERATE_COLUMN = 1e-9
MIN_UPDATE_NORM = 1e-12


@dataclass
class UVSConfig:
    eps_explore: float = 0.05     # exploratory action magnitude per axis
    gain: float = 0.5             # servo gain (lambda)
    damping: float = 1e-3         # damped least-squares regularizer

    def __post_init__(self):
        if self.eps_explore <= 0 or self.gain <= 0 or self.damping <= 0:
            raise ValueError("eps_explore, gain, damping must be positive")


@dataclass
class JacobianEstimate:
    matrix: np.ndarray            # (k factors) x (m action dof)
    damping: float
    degenerate: bool = False      # a degenerate probe column or a failed solve

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if not np.isfinite(self.matrix).all():
            raise ValueError("Jacobian entries must be finite")
        if self.damping <= 0:
            raise ValueError("damping must be positive")

    @property
    def condition_number(self) -> float:
        """Ratio of the extreme singular values, computed when read; inf if singular."""
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return float(sv.max() / sv.min()) if sv.size and sv.min() > 0 else np.inf

    @property
    def ill_conditioned(self) -> bool:
        return self.degenerate or self.condition_number == np.inf


def uvs_init_jacobian(state: WorldState, spec: TaskSpec, sensor: Sensor,
                      eps_explore: float, damping: float = 1e-3) -> JacobianEstimate:
    """Central-difference exploration: one +- probe pair per action axis.

    Probes run through the environment step (so actuation limits apply)
    and the effector ends back at the start state. All 2 * dof probes are
    sensed in one call.
    """
    if eps_explore <= 0 or eps_explore > spec.a_max:
        raise ValueError(
            f"eps_explore must be in (0, a_max={spec.a_max}], got {eps_explore}")
    m = spec.dof
    probes = [sign * eps_explore * unit for unit in np.eye(m) for sign in (1.0, -1.0)]
    z = sensor(np.stack([step(state, probe, spec).position for probe in probes]))
    cols = []
    ill = False
    for axis in range(m):
        col = (z[2 * axis] - z[2 * axis + 1]) / (2.0 * eps_explore)
        if np.linalg.norm(col) < DEGENERATE_COLUMN:
            ill = True
        cols.append(col)
    return JacobianEstimate(matrix=np.stack(cols, axis=1), damping=damping,
                            degenerate=ill)


def uvs_step(jac: JacobianEstimate, error: np.ndarray, gain: float,
             a_max: float) -> np.ndarray:
    """Damped least-squares servo action, magnitude-clipped to the limit.

    dq = -gain * (J^T J + damping I)^{-1} J^T e
    """
    e = np.asarray(error, dtype=np.float64)
    J = jac.matrix
    if e.shape != (J.shape[0],):
        raise ValueError(f"error has length {e.shape}, Jacobian expects {J.shape[0]}")
    m = J.shape[1]
    try:
        dq = -gain * np.linalg.solve(J.T @ J + jac.damping * np.eye(m), J.T @ e)
    except np.linalg.LinAlgError:
        jac.degenerate = True
        return np.zeros(m)
    if not np.isfinite(dq).all():
        jac.degenerate = True
        return np.zeros(m)
    return clip_action(dq, a_max)


def broyden_update(jac: JacobianEstimate, dq: np.ndarray,
                   dz: np.ndarray) -> JacobianEstimate:
    """Rank-1 secant update: J' dq = dz holds exactly afterwards."""
    dq = np.asarray(dq, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    denom = float(dq @ dq)
    if denom < MIN_UPDATE_NORM:
        return jac
    # (u[:, None] * dq) is how np.outer(u, dq) multiplies, without its call cost
    J = jac.matrix + (dz - jac.matrix @ dq)[:, None] * dq / denom
    return JacobianEstimate(matrix=J, damping=jac.damping, degenerate=jac.degenerate)


class UVSController:
    """Per-episode servo controller; owns its Jacobian estimate."""

    def __init__(self, config: UVSConfig, spec: TaskSpec):
        self.config = config
        self.spec = spec
        self.jacobian: Optional[JacobianEstimate] = None

    def begin(self, state: WorldState, sensor: Sensor) -> None:
        self.jacobian = uvs_init_jacobian(state, self.spec, sensor,
                                          self.config.eps_explore,
                                          self.config.damping)

    def act(self, z: np.ndarray, z_star: np.ndarray) -> np.ndarray:
        if self.jacobian is None:
            raise RuntimeError("controller used before begin()")
        return uvs_step(self.jacobian, z - z_star, self.config.gain,
                        self.spec.a_max)

    def observe(self, z_before: np.ndarray, action: np.ndarray,
                z_after: np.ndarray) -> None:
        self.jacobian = broyden_update(self.jacobian, action, z_after - z_before)
