"""Guided REINFORCE: Gaussian policy around a latent-error guidance action.

The policy is N(guidance + mu_theta(z), diag(exp(2 log_std))): a small
tanh network learns a correction on top of the normalized pull toward the
target, and a state-independent log-std per action dim is learned with
it. Updates follow the plain score-function estimator with a batch-mean
return baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor
from ..toyenv import TaskSpec, WorldState, random_start, step
from .sensors import Sensor

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class ReinforceConfig:
    gamma: float = 0.99
    learning_rate: float = 1e-4
    episodes: int = 240
    horizon: int = 80
    batch_episodes: int = 8
    r_goal: float = 10.0
    k_gain: float = 0.5
    init_log_std: float = -1.5
    policy_hidden: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if min(self.learning_rate, self.episodes, self.horizon,
               self.batch_episodes, self.k_gain) <= 0:
            raise ValueError("learning_rate, episodes, horizon, batch_episodes, "
                             "k_gain must be positive")


@dataclass
class Policy:
    params: Dict[str, Tensor]
    k: int            # factor-space input width
    dof: int

    @staticmethod
    def create(k: int, dof: int, hidden: int = 16, init_log_std: float = -1.5,
               seed: int = 0) -> "Policy":
        rng = np.random.default_rng(seed)
        params = {
            "mu_w1": ad.parameter(ad.glorot_uniform(rng, k, hidden, (k, hidden))),
            "mu_b1": ad.parameter(np.zeros(hidden, dtype=np.float32)),
            # zero-initialized head: the fresh policy's mean action is the
            # pure guidance action
            "mu_w2": ad.parameter(np.zeros((hidden, dof), dtype=np.float32)),
            "mu_b2": ad.parameter(np.zeros(dof, dtype=np.float32)),
            "log_std": ad.parameter(np.full(dof, init_log_std, dtype=np.float32)),
        }
        return Policy(params=params, k=k, dof=dof)

    def mean_correction(self, z: Tensor) -> Tensor:
        h = ad.tanh(ad.linear(z, self.params["mu_w1"], self.params["mu_b1"]))
        return ad.linear(h, self.params["mu_w2"], self.params["mu_b2"])

    def std(self) -> np.ndarray:
        return np.exp(self.params["log_std"].data.astype(np.float64))


def reward(z_v: np.ndarray, z_star: np.ndarray, eps_goal: float,
           r_goal: float) -> float:
    """Negative latent distance, plus the goal bonus inside the tolerance."""
    z_v = np.asarray(z_v, dtype=np.float64)
    z_star = np.asarray(z_star, dtype=np.float64)
    if z_v.shape != z_star.shape:
        raise ValueError(f"factor lengths differ: {z_v.shape} vs {z_star.shape}")
    err = float(np.linalg.norm(z_v - z_star))
    return -err + (r_goal if err < eps_goal else 0.0)


def guidance_action(z_star: np.ndarray, z_v: np.ndarray, a_max: float,
                    k_gain: float) -> np.ndarray:
    """Pull toward the target: error scaled by the gain, clipped to the limit."""
    z_star = np.asarray(z_star, dtype=np.float64)
    z_v = np.asarray(z_v, dtype=np.float64)
    if z_star.shape != z_v.shape:
        raise ValueError(f"factor lengths differ: {z_star.shape} vs {z_v.shape}")
    a = k_gain * (z_star - z_v)
    norm = float(np.linalg.norm(a))
    if norm > a_max:
        a *= a_max / norm
    return a


def clip_action(a: np.ndarray, a_max: float) -> np.ndarray:
    norm = float(np.linalg.norm(a))
    return a * (a_max / norm) if norm > a_max else a


def sample_action(policy: Policy, z_v: np.ndarray, a_hat: np.ndarray,
                  rng: np.random.Generator, a_max: float) -> Tuple[np.ndarray, np.ndarray]:
    """One stochastic action: (executed clipped action, pre-clip raw sample).

    The raw sample is what the gradient's log-probability refers to.
    """
    mu = policy.mean_correction(Tensor(z_v[None].astype(np.float32))).data[0]
    mean = a_hat + mu.astype(np.float64)
    raw = mean + policy.std() * rng.standard_normal(policy.dof)
    return clip_action(raw, a_max), raw


@dataclass
class TrainEpisode:
    """Rollout record sufficient to recompute log-probabilities under a tape."""

    zs: np.ndarray            # (T, k) factor observations
    guidance: np.ndarray      # (T, dof) guidance actions
    raw_actions: np.ndarray   # (T, dof) pre-clip samples
    rewards: np.ndarray       # (T,)
    reached_goal: bool

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


def rollout(policy: Policy, spec: TaskSpec, sensor: Sensor, z_star: np.ndarray,
            start: np.ndarray, config: ReinforceConfig, eps_goal: float,
            rng: np.random.Generator) -> TrainEpisode:
    """One stochastic training episode from ``start``.

    Observations are the factor readings the actions were sampled at;
    rewards follow each action (post-step reading).
    """
    state = WorldState(position=np.asarray(start, dtype=np.float64))
    obs, guides, raws, rewards = [], [], [], []
    reached = False
    z = sensor(state)
    for _ in range(config.horizon):
        if np.linalg.norm(z - z_star) < eps_goal:
            reached = True
            break
        a_hat = guidance_action(z_star, z, spec.a_max, config.k_gain)
        action, raw = sample_action(policy, z, a_hat, rng, spec.a_max)
        obs.append(np.asarray(z, dtype=np.float64))
        guides.append(a_hat)
        raws.append(raw)
        state = step(state, action, spec)
        z = sensor(state)
        rewards.append(reward(z, z_star, eps_goal, config.r_goal))
    if not obs:  # started inside the goal region
        return TrainEpisode(zs=np.zeros((0, policy.k)),
                            guidance=np.zeros((0, policy.dof)),
                            raw_actions=np.zeros((0, policy.dof)),
                            rewards=np.zeros(0), reached_goal=True)
    return TrainEpisode(zs=np.stack(obs), guidance=np.stack(guides),
                        raw_actions=np.stack(raws),
                        rewards=np.asarray(rewards, dtype=np.float64),
                        reached_goal=reached)


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Reward-to-go: G_t = sum_{k>=t} gamma^{k-t} r_k."""
    out = np.zeros(len(rewards), dtype=np.float64)
    g = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g
    return out


def reinforce_update(episodes: Sequence[TrainEpisode], policy: Policy,
                     config: ReinforceConfig) -> float:
    """Score-function update with a batch-mean baseline; returns the baseline.

    theta <- theta + lr * sum_t grad log pi(a_t | z_t) * (G_t - b)
    """
    if not episodes:
        raise ValueError("empty episode batch")
    usable = [e for e in episodes if len(e.rewards)]
    if not usable:
        return 0.0
    returns = [discounted_returns(e.rewards, config.gamma) for e in usable]
    flat_returns = np.concatenate(returns)
    baseline = float(flat_returns.mean())
    advantages = flat_returns - baseline

    zs = np.concatenate([e.zs for e in usable]).astype(np.float32)
    guides = np.concatenate([e.guidance for e in usable]).astype(np.float32)
    raws = np.concatenate([e.raw_actions for e in usable]).astype(np.float32)
    adv = advantages.astype(np.float32)[:, None]

    with ad.Tape():
        mean = ad.add(policy.mean_correction(Tensor(zs)), Tensor(guides))
        diff = ad.sub(Tensor(raws), mean)
        inv_var = ad.exp(ad.scale(policy.params["log_std"], -2.0))
        quad = ad.scale(ad.mul(ad.mul(diff, diff), inv_var), -0.5)
        log_probs = ad.sub(quad, ad.add(policy.params["log_std"],
                                        Tensor(np.float32(0.5 * LOG_2PI))))
        surrogate = ad.neg(ad.tsum(ad.mul(log_probs, Tensor(adv))))
        grads = ad.backward(surrogate, policy.params)
    ad.SGD(config.learning_rate).step(policy.params, grads)
    return baseline


def train_policy(spec: TaskSpec, sensor: Sensor, z_star: np.ndarray,
                 config: ReinforceConfig, eps_goal: float,
                 policy: Optional[Policy] = None) -> Tuple[Policy, List[float]]:
    """Run the full training schedule; returns the policy and per-episode rewards."""
    k = len(np.asarray(z_star).reshape(-1))
    if policy is None:
        policy = Policy.create(k, spec.dof, hidden=config.policy_hidden,
                               init_log_std=config.init_log_std, seed=config.seed)
    if policy.dof != spec.dof:
        raise ValueError(f"policy acts in {policy.dof} dims, task has {spec.dof} dof")
    if k != policy.k:
        raise ValueError(f"policy expects {policy.k} factors, target has {k}")
    rng = np.random.default_rng(config.seed)
    rewards_curve: List[float] = []
    batch: List[TrainEpisode] = []
    for _ in range(config.episodes):
        start = random_start(spec, rng)
        ep = rollout(policy, spec, sensor, z_star, start, config, eps_goal, rng)
        rewards_curve.append(ep.total_reward)
        batch.append(ep)
        if len(batch) == config.batch_episodes:
            reinforce_update(batch, policy, config)
            batch = []
    if batch:
        reinforce_update(batch, policy, config)
    return policy, rewards_curve


class GuidedReinforceController:
    """Guidance plus learned correction; deterministic mean action by default."""

    def __init__(self, policy: Policy, spec: TaskSpec, k_gain: float,
                 rng: Optional[np.random.Generator] = None):
        if policy.dof != spec.dof:
            raise ValueError(
                f"factor count {policy.k} routed to {policy.dof}-dim actions "
                f"cannot drive a {spec.dof}-dof task")
        self.policy = policy
        self.spec = spec
        self.k_gain = k_gain
        self.rng = rng  # None -> deterministic mean action

    def begin(self, state: WorldState, sensor: Sensor) -> None:
        pass

    def act(self, z: np.ndarray, z_star: np.ndarray) -> np.ndarray:
        a_hat = guidance_action(z_star, z, self.spec.a_max, self.k_gain)
        if self.rng is not None:
            action, _ = sample_action(self.policy, z, a_hat, self.rng, self.spec.a_max)
            return action
        mu = self.policy.mean_correction(
            Tensor(z[None].astype(np.float32))).data[0]
        return clip_action(a_hat + mu.astype(np.float64), self.spec.a_max)

    def observe(self, z_before, action, z_after) -> None:
        pass
