"""The closed control loop and seeded success-rate evaluation.

Loop per step: (a) sense the current factors, (b) let the controller act
and execute the action, (c) stop when the factor error drops below the
goal tolerance or the budget runs out. Jacobian-exploration probes happen
in the controller's ``begin`` and are not counted against the budget.

``run_episodes`` steps a stack of episodes together under one controller:
each step senses every moving episode in one stacked sensor call and makes
one ``act`` and one ``observe`` call on the stack. Every sensor reads a row
as if alone, so every episode still gets the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from ..toyenv import (TaskSpec, WorldState, as_positions, norm64, random_start,
                      step_positions)
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
    """One episode's record so far."""

    errors: List[float]
    success: bool
    position: np.ndarray             # the latest position
    rewards: List[float] = field(default_factory=list)
    zs: List[np.ndarray] = field(default_factory=list)
    actions: List[np.ndarray] = field(default_factory=list)
    aborted: bool = False

    def result(self, spec: TaskSpec, k: int) -> EpisodeResult:
        task_err = float(np.linalg.norm(self.position - np.asarray(spec.target)))
        return EpisodeResult(
            success=self.success, steps=len(self.rewards), latent_errors=self.errors,
            rewards=self.rewards, final_task_error=task_err,
            zs=np.reshape(self.zs, (-1, k)),
            actions=np.reshape(self.actions, (-1, spec.dof)), aborted=self.aborted)


def run_episodes(controller, starts: np.ndarray, spec: TaskSpec, sensor: Sensor,
                 z_star: np.ndarray, eps_goal: float, max_steps: int,
                 r_goal: float = 10.0) -> List[EpisodeResult]:
    """One episode per start row, all driven by ``controller`` and stepped together.

    Each step senses every moving episode in one stacked sensor call, makes
    one ``act`` and one ``observe`` call on the stack, and runs the abort
    test and the environment step on it. The controller works on (n, ·) row
    stacks: ``begin(positions, sensor)`` gets the rows not already at the
    goal, ``act(z, z_star)`` returns an (n, dof) action stack for (n, k)
    readings, ``observe(z_before, actions, z_after)`` sees the step, and
    ``keep(rows)`` drops the rows where ``rows`` is False. Every row gets
    the bits it gets alone, so every episode gives the result it would give
    on its own. An episode leaves when it reaches the goal, when its action
    row is not finite (it aborts; the others go on) or when the budget runs
    out.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    starts = as_positions(starts)
    z_star = np.asarray(z_star, dtype=np.float64)
    if not all(map(math.isfinite, z_star.ravel().tolist())):
        raise ValueError(f"z* must be finite, got {z_star.tolist()}")
    if not len(starts):
        return []
    positions = np.array([WorldState(position=p).position for p in starts])
    z = sensor(positions)
    if np.shape(z)[1:] != z_star.shape:
        raise ValueError(f"factor lengths differ: sensor rows {np.shape(z)[1:]} "
                         f"vs z* {z_star.shape}")
    episodes = [_Episode([err], err < eps_goal, p)
                for err, p in zip(map(norm64, z - z_star), positions)]
    live = [i for i, e in enumerate(episodes) if not e.success]
    if len(live) < len(episodes):
        positions, z = positions[live], z[live]
    if live:
        controller.begin(positions, sensor)

    for _ in range(max_steps):
        if not live:
            break
        actions = controller.act(z, z_star)
        if not all(map(math.isfinite, actions.ravel().tolist())):  # cheaper than .all()
            moving = np.isfinite(actions).all(axis=1)
            for i, ok in zip(live, moving.tolist()):
                episodes[i].aborted = not ok
            live = [i for i in live if not episodes[i].aborted]
            controller.keep(moving)
            if not live:
                break
            positions, z, actions = positions[moving], z[moving], actions[moving]
        positions = step_positions(positions, actions, spec)
        z_new = sensor(positions)
        controller.observe(z, actions, z_new)
        z = z_new
        errors = z - z_star
        arrived = False
        for j, i in enumerate(live):  # indexing rows beats zip over them
            e = episodes[i]
            err = norm64(errors[j])
            e.errors.append(err)
            e.rewards.append(_reward(err, eps_goal, r_goal))
            e.zs.append(z[j])
            e.actions.append(actions[j])
            e.position = positions[j]
            if err < eps_goal:
                e.success = arrived = True
        if arrived:
            going = np.array([not episodes[i].success for i in live])
            live = [i for i in live if not episodes[i].success]
            controller.keep(going)
            positions, z = positions[going], z[going]
    if live:
        controller.keep(np.zeros(len(live), dtype=bool))
    return [e.result(spec, len(z_star)) for e in episodes]


def control_loop(controller, start: WorldState, spec: TaskSpec, sensor: Sensor,
                 z_star: np.ndarray, eps_goal: float, max_steps: int,
                 r_goal: float = 10.0) -> EpisodeResult:
    """One episode from ``start``: ``run_episodes`` on one row."""
    return run_episodes(controller, start.position[None], spec, sensor, z_star,
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
    """Run seeded episodes from random interior starts, stepped together by
    one controller from ``controller_factory``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    starts = np.stack([random_start(spec, rng) for _ in range(trials)])
    episodes = run_episodes(controller_factory(), starts, spec, sensor, z_star,
                            eps_goal, max_steps, r_goal)
    return SuccessStats(
        success_rate=float(np.mean([e.success for e in episodes])),
        mean_steps=float(np.mean([e.steps for e in episodes])),
        mean_final_error=float(np.mean([e.latent_errors[-1] for e in episodes])),
        episodes=episodes)
