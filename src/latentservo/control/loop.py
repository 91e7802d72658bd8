"""The closed control loop and seeded success-rate evaluation.

Loop per step: (a) sense the current factors, (b) let the controller act
and execute the action, (c) stop when the factor error drops below the
goal tolerance or the budget runs out. Jacobian-exploration probes happen
in the controller's ``begin`` and are not counted against the budget.

``run_episodes`` steps a group of episodes in lockstep so that each step
senses every moving episode in one stacked sensor call; each controller
still sees only its own episode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ..toyenv import TaskSpec, WorldState, as_positions, norm64, random_start, step
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
    return _reward(norm64((z_v - z_star).ravel()), eps_goal, r_goal)


def _reward(err: float, eps_goal: float, r_goal: float) -> float:
    return -err + (r_goal if err < eps_goal else 0.0)


@dataclass
class _Episode:
    """One lockstepped episode's controller, state and record so far."""

    controller: object
    state: WorldState
    z: np.ndarray
    errors: List[float]
    rewards: List[float] = field(default_factory=list)
    zs: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    success: bool = False
    aborted: bool = False

    def result(self, spec: TaskSpec, k: int) -> EpisodeResult:
        task_err = float(np.linalg.norm(self.state.position - np.asarray(spec.target)))
        return EpisodeResult(
            success=self.success, steps=len(self.rewards), latent_errors=self.errors,
            rewards=self.rewards, final_task_error=task_err,
            zs=np.reshape(self.zs, (-1, k)),
            actions=np.reshape(self.actions, (-1, spec.dof)), aborted=self.aborted)


def run_episodes(controllers: Sequence, starts: np.ndarray, spec: TaskSpec,
                 sensor: Sensor, z_star: np.ndarray, eps_goal: float,
                 max_steps: int, r_goal: float = 10.0) -> List[EpisodeResult]:
    """One episode per (controller, start row), stepped together.

    Controllers keep their one-episode ``begin``/``act``/``observe``
    interface and only sensing is stacked, so on a row-stable sensor (the
    oracle or the SAE) every episode gives the result it would give on its
    own; a dense encoder's rows differ in their last bits with the stack
    size. An episode leaves the group when it reaches the goal, when its
    controller emits a non-finite action (it aborts; the others go on) or
    when the budget runs out.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    starts = as_positions(starts)
    if len(controllers) != len(starts):
        raise ValueError(f"{len(controllers)} controllers for {len(starts)} starts")
    z_star = np.asarray(z_star, dtype=np.float64)
    states = [WorldState(position=p) for p in starts]
    z0 = sensor(np.stack([s.position for s in states]))
    if np.shape(z0)[1:] != z_star.shape:
        raise ValueError(f"factor lengths differ: sensor rows {np.shape(z0)[1:]} "
                         f"vs z* {z_star.shape}")
    episodes = []
    for controller, state, z in zip(controllers, states, z0):
        err = norm64(z - z_star)
        episodes.append(_Episode(controller, state, z, [err], success=err < eps_goal))
    active = [e for e in episodes if not e.success]
    for e in active:
        e.controller.begin(e.state, sensor)

    for _ in range(max_steps):
        moved = []
        for e in active:
            action = np.asarray(e.controller.act(e.z, z_star), dtype=np.float64)
            if not np.isfinite(action).all():
                e.aborted = True
                continue
            e.state = step(e.state, action, spec)
            e.actions.append(action)
            moved.append(e)
        if not moved:
            break
        z_new = sensor(np.array([e.state.position for e in moved]))
        for e, z in zip(moved, z_new):
            e.controller.observe(e.z, e.actions[-1], z)
            err = norm64(z - z_star)
            e.rewards.append(_reward(err, eps_goal, r_goal))
            e.zs.append(z)
            e.z = z
            e.errors.append(err)
            e.success = err < eps_goal
        active = [e for e in moved if not e.success]
    return [e.result(spec, len(z_star)) for e in episodes]


def control_loop(controller, start: WorldState, spec: TaskSpec, sensor: Sensor,
                 z_star: np.ndarray, eps_goal: float, max_steps: int,
                 r_goal: float = 10.0) -> EpisodeResult:
    """One episode from ``start``: ``run_episodes`` on a group of one."""
    return run_episodes([controller], start.position[None], spec, sensor, z_star,
                        eps_goal, max_steps, r_goal)[0]


@dataclass
class SuccessStats:
    success_rate: float
    mean_steps: float
    mean_final_error: float          # latent units
    episodes: List[EpisodeResult]


def evaluate_success(controller_factory: Callable[[], object], spec: TaskSpec,
                     sensor: Sensor, z_star: np.ndarray, eps_goal: float,
                     max_steps: int, trials: int, seed: int,
                     r_goal: float = 10.0) -> SuccessStats:
    """Run seeded episodes from random interior starts, all in lockstep."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    starts = np.stack([random_start(spec, rng) for _ in range(trials)])
    episodes = run_episodes([controller_factory() for _ in range(trials)], starts,
                            spec, sensor, z_star, eps_goal, max_steps, r_goal)
    return SuccessStats(
        success_rate=float(np.mean([e.success for e in episodes])),
        mean_steps=float(np.mean([e.steps for e in episodes])),
        mean_final_error=float(np.mean([e.latent_errors[-1] for e in episodes])),
        episodes=episodes)
