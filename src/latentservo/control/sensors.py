"""Position -> time-varying-factor sensors, shared by control and analysis.

A sensor maps an (N, 2) stack of workspace positions to (N, k) float64
factor rows. The model sensor closes over render + an encode of the factor
dims alone; the oracle variant reads the ground-truth position instead,
bounding what the control harness itself can achieve. ``run_episodes``
senses every moving episode of a step in one stack, and a UVS controller
senses each episode's 2 * dof exploration probes in one stack.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..analysis import FactorSet
from ..representations import EncodePlan, ModelWeights
from ..toyenv import TaskSpec, as_positions, render

Sensor = Callable[[np.ndarray], np.ndarray]


def model_sensor(model: ModelWeights, factors: FactorSet, spec: TaskSpec) -> Sensor:
    """Render, then encode only the factor dims: the bits of projecting the
    full latent, without computing the dims the factors leave out. The
    encoder's plan is built here, once, so a call runs render and the
    encoder's arithmetic alone."""
    if factors.spreads.size != model.spec.latent:
        raise ValueError(f"a factor set over {factors.spreads.size} dims cannot read "
                         f"a {model.spec.latent}-dim latent")
    encode = EncodePlan(model, factors.indices)

    def sense(positions: np.ndarray) -> np.ndarray:
        return encode(render(positions, spec))[0].astype(np.float64)

    return sense


def oracle_sensor(spec: TaskSpec) -> Sensor:
    """Ground-truth effector coordinates in place of a learned encoder."""

    def sense(positions: np.ndarray) -> np.ndarray:
        return as_positions(positions)[:, :spec.dof].copy()

    return sense


def target_factors(sensor: Sensor, spec: TaskSpec) -> np.ndarray:
    """The sensor's reading at the task target: z*."""
    return sensor(np.asarray([spec.target], dtype=np.float64))[0]


def calibrate_goal_tolerance(sensor: Sensor, spec: TaskSpec,
                             workspace_tol: float = 0.02) -> float:
    """Latent-space image of a workspace tolerance near the target.

    Probes the sensor at target +- workspace_tol along each axis and
    averages the factor-space displacement; the oracle sensor calibrates
    to exactly workspace_tol.
    """
    target = np.asarray(spec.target, dtype=np.float64)
    z0 = sensor(target[None])[0]
    deltas = []
    for axis in range(spec.dof):
        for sign in (1.0, -1.0):
            probe = target.copy()
            probe[axis] = np.clip(probe[axis] + sign * workspace_tol, 0.0, 1.0)
            deltas.append(np.linalg.norm(sensor(probe[None])[0] - z0))
    tol = float(np.mean(deltas))
    if not tol > 0.0:
        raise ValueError("sensor is locally constant at the target; "
                         "cannot calibrate a goal tolerance")
    return tol
