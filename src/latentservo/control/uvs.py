"""Uncalibrated visual servoing: exploratory Jacobian, damped step, Broyden update.

The Jacobian maps action increments to factor changes; it is estimated by
central-difference exploration, used through a damped least-squares law,
and refined online with rank-1 secant updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..toyenv import TaskSpec, WorldState, clip_action, step_positions
from .sensors import Sensor

DEGENERATE_COLUMN = 1e-9
MIN_UPDATE_NORM = 1e-12


@dataclass
class UVSConfig:
    eps_explore: float = 0.05     # exploratory action magnitude per axis
    gain: float = 0.5             # servo gain (lambda)
    damping: float = 1e-3         # damped least-squares regularizer

    def __post_init__(self):
        if not (self.eps_explore > 0 and self.gain > 0 and self.damping > 0):
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
        if not self.damping > 0:
            raise ValueError("damping must be positive")

    @property
    def condition_number(self) -> float:
        """Ratio of the extreme singular values, computed when read; inf if singular."""
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return float(sv.max() / sv.min()) if sv.size and sv.min() > 0 else np.inf

    @property
    def ill_conditioned(self) -> bool:
        return self.degenerate or self.condition_number == np.inf


def _explore(positions: np.ndarray, spec: TaskSpec, sensor: Sensor, eps_explore: float):
    """Central-difference exploration of each row: one +- probe pair per action axis.

    Probes run through the environment step (so actuation limits apply)
    and the effector ends back at its start. Every row's 2 * dof probes are
    sensed in one call. Returns the C-contiguous (n, k, m) Jacobian stack
    and each row's degenerate flag (a probe column near zero).
    """
    if not 0 < eps_explore <= spec.a_max:
        raise ValueError(
            f"eps_explore must be in (0, a_max={spec.a_max}], got {eps_explore}")
    n, m = len(positions), spec.dof
    probes = np.stack([sign * eps_explore * unit for unit in np.eye(m) for sign in (1.0, -1.0)])
    z = sensor(step_positions(np.repeat(positions, 2 * m, axis=0), np.tile(probes, (n, 1)),
                              spec)).reshape(n, m, 2, -1)
    cols = (z[:, :, 0] - z[:, :, 1]) / (2.0 * eps_explore)  # (n, m, k)
    J = np.ascontiguousarray(cols.transpose(0, 2, 1))
    if not np.isfinite(J).all():
        raise ValueError("Jacobian entries must be finite")
    return J, (np.sqrt(np.vecdot(cols, cols)) < DEGENERATE_COLUMN).any(axis=1)


def uvs_init_jacobian(state: WorldState, spec: TaskSpec, sensor: Sensor,
                      eps_explore: float, damping: float = 1e-3) -> JacobianEstimate:
    """The exploration ``UVSController.begin`` runs, on one state."""
    J, degenerate = _explore(state.position[None], spec, sensor, eps_explore)
    return JacobianEstimate(matrix=J[0], damping=damping, degenerate=bool(degenerate[0]))


def uvs_steps(J: np.ndarray, errors: np.ndarray, damping_eye: np.ndarray, gain: float,
              a_max: float):
    """Damped least-squares servo actions on a stack, magnitude-clipped to the limit.

    dq = -gain * (J^T J + damping I)^{-1} J^T e, for (n, k, m) Jacobians
    and (n, k) errors.

    ``damping_eye`` is each row's damping times the (m, m) identity, one
    per row or shared; ``gain`` and ``a_max`` are scalars. Returns the
    (n, m) clipped actions and the rows whose solve failed, which get zero
    actions. Every row runs the one-row kernels (batched ``matmul`` and
    ``solve`` loop over the same BLAS and LAPACK calls), so it gets the bits
    it gets alone. A singular row makes the batched ``solve`` raise for the
    whole stack; then each row is solved on its own and only the singular
    ones fail.
    """
    lhs = J.mT @ J + damping_eye
    rhs = J.mT @ errors[..., None]
    try:
        dq = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        dq = np.stack([_solve_or_nan(a, b) for a, b in zip(lhs, rhs)])
    dq = -gain * dq[..., 0]
    failed = np.zeros(len(dq), dtype=bool)
    if not all(map(math.isfinite, dq.ravel().tolist())):  # cheaper than .all()
        failed = ~np.isfinite(dq).all(axis=1)
        dq[failed] = 0.0
    return clip_action(dq, a_max), failed


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def broyden_updates(J: np.ndarray, dq: np.ndarray, dz: np.ndarray):
    """``broyden_update`` on a stack: (n, k, m) Jacobians, (n, m) steps, (n, k) changes.

    Returns the new stack and the rows updated; a row whose step is shorter
    than ``MIN_UPDATE_NORM`` keeps its Jacobian. Each row gets the bits it
    gets alone. A non-finite updated Jacobian raises ``ValueError``.
    """
    denom = np.vecdot(dq, dq)
    short = denom < MIN_UPDATE_NORM   # a NaN step updates, and raises below
    skip = any(short.tolist())
    if skip:
        denom = np.where(short, 1.0, denom)
    u = dz - (J @ dq[..., None])[..., 0]
    # each row's u[:, None] * dq is how np.outer(u, dq) multiplies, without its call cost
    new = J + u[:, :, None] * dq[:, None, :] / denom[:, None, None]
    J = np.where(short[:, None, None], J, new) if skip else new
    if not all(map(math.isfinite, J.ravel().tolist())):  # cheaper than .all()
        raise ValueError("Jacobian entries must be finite")
    updated = ~short
    return J, updated


def broyden_update(jac: JacobianEstimate, dq: np.ndarray,
                   dz: np.ndarray) -> JacobianEstimate:
    """Rank-1 secant update: J' dq = dz holds exactly afterwards."""
    dq = np.asarray(dq, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    J, updated = broyden_updates(jac.matrix[None], dq[None], dz[None])
    if not updated[0]:
        return jac
    return JacobianEstimate(matrix=J[0], damping=jac.damping, degenerate=jac.degenerate)


class UVSController:
    """Servo controller for a stack of episodes: one Jacobian estimate per row.

    The estimates are held as one (n, k, m) stack while the episodes run;
    ``jacobians[i]`` is the final estimate of the i-th row ``begin`` got,
    written when that row leaves.
    """

    def __init__(self, config: UVSConfig, spec: TaskSpec):
        self.config = config
        self.spec = spec
        self.jacobians: List[Optional[JacobianEstimate]] = []
        self.J: Optional[np.ndarray] = None

    def begin(self, positions: np.ndarray, sensor: Sensor) -> None:
        """Explore every row's Jacobian, all probes in one sensor call."""
        self.J, self.degenerate = _explore(positions, self.spec, sensor,
                                           self.config.eps_explore)
        self.damping_eye = self.config.damping * np.eye(self.J.shape[2])
        self.jacobians = [None] * len(positions)
        self.live = np.arange(len(positions))    # each live row's index in ``jacobians``

    def act(self, z: np.ndarray, z_star: np.ndarray) -> np.ndarray:
        if self.J is None:
            raise RuntimeError("controller used before begin()")
        actions, failed = uvs_steps(self.J, z - z_star, self.damping_eye,
                                    self.config.gain, self.spec.a_max)
        self.degenerate |= failed
        return actions

    def observe(self, z_before: np.ndarray, actions: np.ndarray,
                z_after: np.ndarray) -> None:
        self.J = broyden_updates(self.J, actions, z_after - z_before)[0]

    def keep(self, rows: np.ndarray) -> None:
        """Keep the rows where ``rows`` is True; the others write their estimates."""
        for i in np.flatnonzero(~rows):
            self.jacobians[self.live[i]] = JacobianEstimate(
                matrix=self.J[i].copy(), damping=self.config.damping,
                degenerate=bool(self.degenerate[i]))
        self.J, self.degenerate = self.J[rows], self.degenerate[rows]
        self.live = self.live[rows]
