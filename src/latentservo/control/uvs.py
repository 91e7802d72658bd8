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


def uvs_init_jacobian(state: WorldState, spec: TaskSpec, sensor: Sensor,
                      eps_explore: float, damping: float = 1e-3) -> JacobianEstimate:
    """Central-difference exploration: one +- probe pair per action axis.

    Probes run through the environment step (so actuation limits apply)
    and the effector ends back at the start state. All 2 * dof probes are
    sensed in one call.
    """
    if not 0 < eps_explore <= spec.a_max:
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


def uvs_steps(J: np.ndarray, errors: np.ndarray, damping_eye: np.ndarray, gain: float,
              a_max: float):
    """``uvs_step`` on a stack: (n, k, m) Jacobians and (n, k) errors.

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


def uvs_step(jac: JacobianEstimate, error: np.ndarray, gain: float,
             a_max: float) -> np.ndarray:
    """Damped least-squares servo action, magnitude-clipped to the limit.

    dq = -gain * (J^T J + damping I)^{-1} J^T e

    A failed or non-finite solve flags ``jac`` degenerate and returns zeros.
    """
    e = np.asarray(error, dtype=np.float64)
    J = jac.matrix
    if e.shape != (J.shape[0],):
        raise ValueError(f"error has length {e.shape}, Jacobian expects {J.shape[0]}")
    dq, failed = uvs_steps(J[None], e[None], jac.damping * np.eye(J.shape[1]), gain,
                           a_max)
    if failed[0]:
        jac.degenerate = True
    return dq[0]


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

    def lockstep(self):
        """The key of the stacked group this controller steps in (``run_episodes``)."""
        return (UVSGroup, self.config.gain, self.config.damping, self.spec.a_max)


class UVSGroup:
    """Begun ``UVSController``s with one gain, damping and limit, acting as one stack.

    Their Jacobians are held as one (n, k, m) stack while the group runs;
    a controller's ``jacobian`` is written back when its row leaves.
    """

    def __init__(self, controllers: List[UVSController]):
        self.controllers = controllers
        jacs = [c.jacobian for c in controllers]
        first = controllers[0]
        self.gain, self.damping, self.a_max = (first.config.gain, first.config.damping,
                                               first.spec.a_max)
        self.J = np.stack([j.matrix for j in jacs])
        self.damping_eye = self.damping * np.eye(self.J.shape[2])
        self.degenerate = np.array([j.degenerate for j in jacs])

    def act(self, z: np.ndarray, z_star: np.ndarray) -> np.ndarray:
        actions, failed = uvs_steps(self.J, z - z_star, self.damping_eye, self.gain,
                                    self.a_max)
        self.degenerate |= failed
        return actions

    def observe(self, z_before: np.ndarray, actions: np.ndarray,
                z_after: np.ndarray) -> None:
        self.J = broyden_updates(self.J, actions, z_after - z_before)[0]

    def keep(self, rows: np.ndarray) -> None:
        """Keep the rows where ``rows`` is True; the others get their Jacobians."""
        for i in np.flatnonzero(~rows):
            self.controllers[i].jacobian = JacobianEstimate(
                matrix=self.J[i].copy(), damping=self.damping,
                degenerate=bool(self.degenerate[i]))
        self.controllers = [c for c, k in zip(self.controllers, rows) if k]
        self.J, self.degenerate = self.J[rows], self.degenerate[rows]
