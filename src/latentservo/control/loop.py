"""The closed control loop and seeded success-rate evaluation.

Loop per step: (a) sense the current factors, (b) let the controller act
and execute the action, (c) stop when the factor error drops below the
goal tolerance or the budget runs out. Jacobian-exploration probes happen
in the controller's ``begin`` and are not counted against the budget.

``run_episodes`` steps a group of episodes in lockstep: each step senses
every moving episode in one stacked sensor call and makes one stacked call
per controller group (see ``_groups``), and every episode still gets the
bits it gets alone.
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


def _groups(controllers: Sequence, dof: int) -> list:
    """[(group, rows)]: the begun controllers split into stacked groups, and
    one group of those that act alone.

    A controller class may define ``lockstep()``, returning None or a
    hashable key whose first item is a group class. Controllers with equal
    keys step as one instance of it, built from their list, whose ``act``
    and ``observe`` take row stacks and whose ``keep(rows)`` drops rows.
    Only a class's own ``lockstep`` counts, so a subclass or a wrapper that
    changes ``act`` is never stacked by its base's arithmetic.
    """
    keyed, alone = {}, []
    for row, controller in enumerate(controllers):
        lockstep = type(controller).__dict__.get("lockstep")
        key = lockstep(controller) if lockstep is not None else None
        (alone if key is None else keyed.setdefault(key, [])).append(row)
    groups = [(key[0]([controllers[i] for i in rows]), rows)
              for key, rows in keyed.items()]
    if alone:
        groups.append((_Alone([controllers[i] for i in alone], dof), alone))
    return [(group, np.array(rows)) for group, rows in groups]


def run_episodes(controllers: Sequence, starts: np.ndarray, spec: TaskSpec,
                 sensor: Sensor, z_star: np.ndarray, eps_goal: float,
                 max_steps: int, r_goal: float = 10.0) -> List[EpisodeResult]:
    """One episode per (controller, start row), stepped together.

    Each step senses every moving episode in one stacked sensor call and
    runs the abort test and the environment step on the stack. Controllers
    whose class defines ``lockstep`` act as one stacked group per key
    (``UVSController``, and ``GuidedReinforceController`` without an rng);
    any other controller keeps its one-episode ``begin``/``act``/``observe``.
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
    if not len(starts):
        return []
    z_star = np.asarray(z_star, dtype=np.float64)
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
    groups = _groups([controllers[i] for i in live], spec.dof)

    for _ in range(max_steps):
        if not live:
            break
        if len(groups) == 1:
            actions = groups[0][0].act(z, z_star)
        else:
            actions = np.empty((len(live), spec.dof))
            for group, index in groups:
                actions[index] = group.act(z[index], z_star)
        if not all(map(math.isfinite, actions.ravel().tolist())):  # cheaper than .all()
            moving = np.isfinite(actions).all(axis=1)
            for i, ok in zip(live, moving.tolist()):
                if not ok:
                    episodes[i].aborted = True
            live, groups = _keep(live, groups, moving)
            positions, z, actions = positions[moving], z[moving], actions[moving]
            if not live:
                break
        positions = step_positions(positions, actions, spec)
        z_new = sensor(positions)
        if len(groups) == 1:
            groups[0][0].observe(z, actions, z_new)
        else:
            for group, index in groups:
                group.observe(z[index], actions[index], z_new[index])
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
            live, groups = _keep(live, groups, going)
            if live:
                positions, z = positions[going], z[going]
    if live:
        _keep(live, groups, np.zeros(len(live), dtype=bool))
    return [e.result(spec, len(z_star)) for e in episodes]


def _keep(live: list, groups: list, rows: np.ndarray):
    """The live episodes and their groups where ``rows`` is True, re-indexed;
    each group hands the rows it drops their controllers' final state."""
    live = [i for i, k in zip(live, rows.tolist()) if k]
    slot = np.cumsum(rows) - 1 if live else None
    kept = []
    for group, index in groups:
        mine = rows[index]
        group.keep(mine)
        if live and mine.any():
            kept.append((group, slot[index][mine]))
    return live, kept


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
