"""State -> time-varying-factor sensors for the control loop.

A sensor closes over render + encode + factor projection; the oracle
variant reads the simulator's ground-truth position instead, bounding
what the control harness itself can achieve.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..analysis import FactorSet, project
from ..representations import ModelWeights, encode
from ..toyenv import TaskSpec, WorldState, render

Sensor = Callable[[WorldState], np.ndarray]


def model_sensor(model: ModelWeights, factors: FactorSet, spec: TaskSpec) -> Sensor:
    def sense(state: WorldState) -> np.ndarray:
        latent = encode(model, render(state, spec)).values
        return project(latent, factors).astype(np.float64)

    return sense


def oracle_sensor(spec: TaskSpec) -> Sensor:
    """Ground-truth effector coordinates in place of a learned encoder."""

    def sense(state: WorldState) -> np.ndarray:
        if spec.dof == 1:
            return np.array([state.position[0]])
        return state.position.copy()

    return sense


def target_factors(sensor: Sensor, spec: TaskSpec) -> np.ndarray:
    """The sensor's reading at the task target: z*."""
    return sensor(WorldState(position=np.asarray(spec.target, dtype=np.float64)))


def calibrate_goal_tolerance(sensor: Sensor, spec: TaskSpec,
                             workspace_tol: float = 0.02) -> float:
    """Latent-space image of a workspace tolerance near the target.

    Probes the sensor at target +- workspace_tol along each axis and
    averages the factor-space displacement; the oracle sensor calibrates
    to exactly workspace_tol.
    """
    target = np.asarray(spec.target, dtype=np.float64)
    z0 = sensor(WorldState(position=target))
    deltas = []
    for axis in range(spec.dof):
        for sign in (1.0, -1.0):
            probe = target.copy()
            probe[axis] = np.clip(probe[axis] + sign * workspace_tol, 0.0, 1.0)
            deltas.append(np.linalg.norm(sensor(WorldState(position=probe)) - z0))
    tol = float(np.mean(deltas))
    if tol <= 0.0:
        raise ValueError("sensor is locally constant at the target; "
                         "cannot calibrate a goal tolerance")
    return tol
