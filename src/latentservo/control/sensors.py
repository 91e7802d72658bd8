"""Position -> time-varying-factor sensors, shared by control and analysis.

A sensor maps an (N, 2) stack of workspace positions to (N, k) float64
factor rows. The model sensor closes over render + an encode of the factor
dims alone; the oracle variant reads the ground-truth position instead,
bounding what the control harness itself can achieve. Every sensor reads a
row of a stack as if alone, byte for byte, so its callers stack their reads:
a step's moving episodes, a UVS controller's probes, a calibration's probes.
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

    Reads the target and its probes at target +- workspace_tol along each
    axis in one call and averages the factor-space displacement; the oracle
    sensor calibrates to exactly workspace_tol.
    """
    target = np.asarray(spec.target, dtype=np.float64)
    probes = [target]
    for axis in range(spec.dof):
        for sign in (1.0, -1.0):
            probe = target.copy()
            probe[axis] = np.clip(probe[axis] + sign * workspace_tol, 0.0, 1.0)
            probes.append(probe)
    z = sensor(np.stack(probes))
    tol = float(np.mean([np.linalg.norm(d) for d in z[1:] - z[0]]))
    if not tol > 0.0:
        raise ValueError("sensor is locally constant at the target; "
                         "cannot calibrate a goal tolerance")
    return tol
