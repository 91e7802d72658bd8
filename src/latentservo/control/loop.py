"""The closed control loop and seeded success-rate evaluation.

Loop per step: (a) sense the current factors, (b) let the controller act
and execute the action, (c) stop when the factor error drops below the
goal tolerance or the budget runs out. Jacobian-exploration probes happen
in the controller's ``begin`` and are not counted against the budget.

``run_episodes`` steps a group of episodes in lockstep: each step senses
every moving episode in one stacked sensor call. A list whose controllers
share one ``lockstep`` key acts as one stacked group, any other list acts
alone (see ``_group``), and every episode still gets the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

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
    """One lockstepped episode's record so far."""

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


class _Alone:
    """Controllers that act one episode at a time, through ``act``/``observe``."""

    def __init__(self, controllers: list, dof: int):
        self.controllers = controllers
        self.dof = dof

    def act(self, z: np.ndarray, z_star: np.ndarray) -> np.ndarray:
        """One action row per controller. A non-finite action of another
        length is a NaN row: the loop aborts it before its length counts."""
        actions = np.empty((len(self.controllers), self.dof))
        for j, controller in enumerate(self.controllers):
            action = np.asarray(controller.act(z[j], z_star), dtype=np.float64)
            if action.size == self.dof:
                actions[j] = action.reshape(-1)
            elif np.isfinite(action).all():
                raise ValueError(f"action must have dim {self.dof}, "
                                 f"got shape {action.reshape(-1).shape}")
            else:
                actions[j] = np.nan
        return actions

    def observe(self, z_before: np.ndarray, actions: np.ndarray,
                z_after: np.ndarray) -> None:
        for j, controller in enumerate(self.controllers):
            controller.observe(z_before[j], actions[j], z_after[j])

    def keep(self, rows: np.ndarray) -> None:
        self.controllers = [c for c, k in zip(self.controllers, rows) if k]


def _group(controllers: list, dof: int):
    """The begun controllers as one group: a stacked group if they share a
    ``lockstep`` key, else ``_Alone``.

    A controller class may define ``lockstep()``, returning None or a
    hashable key whose first item is a group class. Controllers that all
    return one key step as one instance of it, built from their list, whose
    ``act`` and ``observe`` take row stacks and whose ``keep(rows)`` drops
    rows. Only a class's own ``lockstep`` counts, so a subclass or a wrapper
    that changes ``act`` is never stacked by its base's arithmetic.
    """
    keys = set()
    for controller in controllers:
        lockstep = type(controller).__dict__.get("lockstep")
        keys.add(lockstep(controller) if lockstep is not None else None)
    key = keys.pop() if len(keys) == 1 else None
    return _Alone(controllers, dof) if key is None else key[0](controllers)


def run_episodes(controllers: Sequence, starts: np.ndarray, spec: TaskSpec,
                 sensor: Sensor, z_star: np.ndarray, eps_goal: float,
                 max_steps: int, r_goal: float = 10.0) -> List[EpisodeResult]:
    """One episode per (controller, start row), stepped together.

    Each step senses every moving episode in one stacked sensor call and
    runs the abort test and the environment step on the stack. Controllers
    that share one ``lockstep`` key act as one stacked group
    (``UVSController``s of one gain and damping, or ``GuidedReinforceController``s
    of one policy without an rng); any other list acts alone, each
    controller through its one-episode ``begin``/``act``/``observe``.
    Every row gets the bits it gets alone, so on a row-stable sensor (the
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
    if not all(map(math.isfinite, z_star.ravel().tolist())):
        raise ValueError(f"z* must be finite, got {z_star.tolist()}")
    if not len(starts):
        return []
    states = [WorldState(position=p) for p in starts]
    positions = np.array([s.position for s in states])
    z = sensor(positions)
    if np.shape(z)[1:] != z_star.shape:
        raise ValueError(f"factor lengths differ: sensor rows {np.shape(z)[1:]} "
                         f"vs z* {z_star.shape}")
    episodes = [_Episode([err], err < eps_goal, p)
                for err, p in zip(map(norm64, z - z_star), positions)]
    live = [i for i, e in enumerate(episodes) if not e.success]
    for i in live:
        controllers[i].begin(states[i], sensor)
    if len(live) < len(episodes):
        positions, z = positions[live], z[live]
    group = _group([controllers[i] for i in live], spec.dof)

    for _ in range(max_steps):
        if not live:
            break
        actions = group.act(z, z_star)
        if not all(map(math.isfinite, actions.ravel().tolist())):  # cheaper than .all()
            moving = np.isfinite(actions).all(axis=1)
            for i, ok in zip(live, moving.tolist()):
                episodes[i].aborted = not ok
            live = [i for i in live if not episodes[i].aborted]
            group.keep(moving)
            if not live:
                break
            positions, z, actions = positions[moving], z[moving], actions[moving]
        positions = step_positions(positions, actions, spec)
        z_new = sensor(positions)
        group.observe(z, actions, z_new)
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
            group.keep(going)
            positions, z = positions[going], z[going]
    if live:
        group.keep(np.zeros(len(live), dtype=bool))
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
