"""The closed control loop and seeded success-rate evaluation.

Loop per step: (a) sense the current factors, (b) let the controller act
and execute the action, (c) stop when the factor error drops below the
goal tolerance or the budget runs out. Jacobian-exploration probes happen
in the controller's ``begin`` and are not counted against the budget.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..toyenv import TaskSpec, WorldState, random_start, step
from .sensors import Sensor


@dataclass
class EpisodeResult:
    success: bool
    steps: int
    latent_errors: List[float]       # error before each step, then final
    rewards: List[float]             # post-action rewards
    final_task_error: float          # oracle diagnostic, workspace units
    zs: np.ndarray                   # (steps, k) post-action factor readings
    actions: np.ndarray              # (steps, m) executed actions
    aborted: bool = False            # controller emitted a non-finite action


def reward(z_v: np.ndarray, z_star: np.ndarray, eps_goal: float,
           r_goal: float) -> float:
    """Negative latent distance, plus the goal bonus inside the tolerance."""
    z_v = np.asarray(z_v, dtype=np.float64)
    z_star = np.asarray(z_star, dtype=np.float64)
    if z_v.shape != z_star.shape:
        raise ValueError(f"factor lengths differ: {z_v.shape} vs {z_star.shape}")
    err = float(np.linalg.norm(z_v - z_star))
    return -err + (r_goal if err < eps_goal else 0.0)


def control_loop(controller, start: WorldState, spec: TaskSpec, sensor: Sensor,
                 z_star: np.ndarray, eps_goal: float, max_steps: int,
                 r_goal: float = 10.0) -> EpisodeResult:
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    z_star = np.asarray(z_star, dtype=np.float64)
    state = start
    z = sensor(state.position[None])[0]
    err = float(np.linalg.norm(z - z_star))
    errors = [err]
    rewards: List[float] = []
    zs: List[np.ndarray] = []
    actions: List[np.ndarray] = []

    def result(success: bool, aborted: bool = False) -> EpisodeResult:
        task_err = float(np.linalg.norm(state.position - np.asarray(spec.target)))
        return EpisodeResult(
            success=success, steps=len(rewards), latent_errors=errors,
            rewards=rewards, final_task_error=task_err,
            zs=np.reshape(zs, (-1, len(z_star))),
            actions=np.reshape(actions, (-1, spec.dof)), aborted=aborted)

    if err < eps_goal:
        return result(success=True)

    controller.begin(state, sensor)
    for _ in range(max_steps):
        action = np.asarray(controller.act(z, z_star), dtype=np.float64)
        if not np.all(np.isfinite(action)):
            return result(success=False, aborted=True)
        state = step(state, action, spec)
        z_new = sensor(state.position[None])[0]
        controller.observe(z, action, z_new)
        rewards.append(reward(z_new, z_star, eps_goal, r_goal))
        zs.append(z_new)
        actions.append(action)
        z = z_new
        err = float(np.linalg.norm(z - z_star))
        errors.append(err)
        if err < eps_goal:
            return result(success=True)
    return result(success=False)


@dataclass
class SuccessStats:
    success_rate: float
    mean_steps: float
    mean_final_error: float          # latent units
    episodes: List[EpisodeResult]

    def to_dict(self) -> dict:
        return {
            "success_rate": self.success_rate,
            "mean_steps": self.mean_steps,
            "mean_final_error": self.mean_final_error,
            "trials": [
                {"success": e.success, "steps": e.steps,
                 "final_latent_error": e.latent_errors[-1],
                 "final_task_error": e.final_task_error,
                 "aborted": e.aborted}
                for e in self.episodes
            ],
        }


def evaluate_success(controller_factory: Callable[[], object], spec: TaskSpec,
                     sensor: Sensor, z_star: np.ndarray, eps_goal: float,
                     max_steps: int, trials: int, seed: int,
                     r_goal: float = 10.0) -> SuccessStats:
    """Run seeded episodes from random interior starts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    episodes = []
    for _ in range(trials):
        start = WorldState(position=random_start(spec, rng))
        episodes.append(control_loop(controller_factory(), start, spec, sensor,
                                     z_star, eps_goal, max_steps, r_goal))
    return SuccessStats(
        success_rate=float(np.mean([e.success for e in episodes])),
        mean_steps=float(np.mean([e.steps for e in episodes])),
        mean_final_error=float(np.mean([e.latent_errors[-1] for e in episodes])),
        episodes=episodes)


def episode_trace_csv(episode: EpisodeResult) -> str:
    buf = io.StringIO()
    if not episode.steps:
        buf.write("step\n")
        return buf.getvalue()
    zcols = ",".join(f"z{i}" for i in range(episode.zs.shape[1]))
    acols = ",".join(f"a{i}" for i in range(episode.actions.shape[1]))
    buf.write(f"step,{zcols},{acols},reward\n")
    for i, (z, a, r) in enumerate(zip(episode.zs, episode.actions, episode.rewards), 1):
        buf.write(f"{i},"
                  + ",".join(f"{v:.6g}" for v in z) + ","
                  + ",".join(f"{v:.6g}" for v in a)
                  + f",{r:.6g}\n")
    return buf.getvalue()
