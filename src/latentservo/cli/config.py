"""Experiment configuration: sectioned INI, schema-checked up front.

Every key is validated (type, range, allowed names) before any stage
runs; unknown sections or keys are rejected so sweep provenance stays
trustworthy. ``schema_version`` pins the layout.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..analysis import DEFAULT_TAU
from ..control import ReinforceConfig, UVSConfig
from ..representations import ConfigError, EncoderSpec, Method, TrainConfig
from ..toyenv import Pattern, TaskSpec

SCHEMA_VERSION = 1


@dataclass
class DemoConfig:
    count: int = 3
    pattern: Pattern = Pattern.STRAIGHT
    steps: int = 16
    starts: Optional[List[Tuple[float, float]]] = None  # None -> seeded auto
    executor: bool = True
    arc_bulge: float = 0.25


@dataclass
class MethodConfig:
    spec: EncoderSpec
    train: TrainConfig


@dataclass
class AnalysisConfig:
    tau: float = DEFAULT_TAU
    grid_n: int = 64
    alpha_sweep: Tuple[float, ...] = (0.1, 1.0, 10.0)
    alpha_sweep_epochs: int = 800
    collision_fraction: float = 0.04
    fieldmap_methods: Tuple[str, ...] = ("bvae", "sae")


@dataclass
class ControlConfig:
    methods: Tuple[str, ...] = ("bvae", "sae")
    trials: int = 10
    max_steps: int = 80
    goal_workspace_tol: float = 0.02
    include_oracle: bool = True


@dataclass
class ExperimentConfig:
    schema_version: int
    seed: int
    out_dir: Path
    task: TaskSpec
    demos: DemoConfig
    methods: Dict[str, MethodConfig]
    analysis: AnalysisConfig
    control: ControlConfig
    uvs: UVSConfig
    reinforce: ReinforceConfig

    def digest(self) -> str:
        blob = json.dumps(_canonical(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def stage_seed(self, stage: str) -> int:
        h = hashlib.sha256(f"{self.seed}:{stage}".encode()).digest()
        return int.from_bytes(h[:4], "little")


def _canonical(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": cfg.schema_version,
        "seed": cfg.seed,
        "task": cfg.task.to_dict(),
        "demos": {
            "count": cfg.demos.count,
            "pattern": cfg.demos.pattern.value,
            "steps": cfg.demos.steps,
            "starts": cfg.demos.starts,
            "executor": cfg.demos.executor,
            "arc_bulge": cfg.demos.arc_bulge,
        },
        "methods": {
            name: {"spec": mc.spec.to_dict(), "train": mc.train.to_dict()}
            for name, mc in sorted(cfg.methods.items())
        },
        "analysis": {
            "tau": cfg.analysis.tau,
            "grid_n": cfg.analysis.grid_n,
            "alpha_sweep": list(cfg.analysis.alpha_sweep),
            "alpha_sweep_epochs": cfg.analysis.alpha_sweep_epochs,
            "collision_fraction": cfg.analysis.collision_fraction,
            "fieldmap_methods": list(cfg.analysis.fieldmap_methods),
        },
        "control": {
            "methods": list(cfg.control.methods),
            "trials": cfg.control.trials,
            "max_steps": cfg.control.max_steps,
            "goal_workspace_tol": cfg.control.goal_workspace_tol,
            "include_oracle": cfg.control.include_oracle,
        },
        "uvs": {
            "eps_explore": cfg.uvs.eps_explore,
            "gain": cfg.uvs.gain,
            "damping": cfg.uvs.damping,
        },
        "reinforce": {
            "gamma": cfg.reinforce.gamma,
            "learning_rate": cfg.reinforce.learning_rate,
            "episodes": cfg.reinforce.episodes,
            "horizon": cfg.reinforce.horizon,
            "batch_episodes": cfg.reinforce.batch_episodes,
            "r_goal": cfg.reinforce.r_goal,
            "k_gain": cfg.reinforce.k_gain,
            "init_log_std": cfg.reinforce.init_log_std,
            "policy_hidden": cfg.reinforce.policy_hidden,
        },
    }


_SCHEMA: Dict[str, Dict[str, str]] = {
    "meta": {"schema_version": "int", "seed": "int", "out_dir": "str"},
    "task": {"dof": "int", "image_size": "int", "sprite_radius": "float",
             "target": "point", "a_max": "float"},
    "demos": {"count": "int", "pattern": "str", "steps": "int",
              "starts": "str", "executor": "bool", "arc_bulge": "float"},
    "methods": {"train": "list"},
    "method.ae": {"latent_dim": "int", "epochs": "int", "batch_size": "int",
                  "learning_rate": "float", "hidden": "list"},
    "method.vae": {"latent_dim": "int", "epochs": "int", "batch_size": "int",
                   "learning_rate": "float", "hidden": "list"},
    "method.bvae": {"latent_dim": "int", "alpha": "float", "epochs": "int",
                    "batch_size": "int", "learning_rate": "float", "hidden": "list"},
    "method.sae": {"channels": "int", "conv1_channels": "int", "temperature": "float",
                   "decoder_hidden": "int", "epochs": "int", "batch_size": "int",
                   "learning_rate": "float"},
    "analysis": {"tau": "float", "grid_n": "int", "alpha_sweep": "list",
                 "alpha_sweep_epochs": "int", "collision_fraction": "float",
                 "fieldmap_methods": "list"},
    "control": {"methods": "list", "trials": "int", "max_steps": "int",
                "goal_workspace_tol": "float", "include_oracle": "bool"},
    "uvs": {"eps_explore": "float", "gain": "float", "damping": "float"},
    "reinforce": {"gamma": "float", "learning_rate": "float", "episodes": "int",
                  "horizon": "int", "batch_episodes": "int", "r_goal": "float",
                  "k_gain": "float", "init_log_std": "float", "policy_hidden": "int"},
}

KNOWN_METHODS = ("ae", "vae", "bvae", "sae")


def _parse_point(raw: str) -> Tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'x, y', got {raw!r}")
    return float(parts[0]), float(parts[1])


def _parse_starts(raw: str) -> Optional[List[Tuple[float, float]]]:
    raw = raw.strip()
    if raw == "auto":
        return None
    return [_parse_point(chunk) for chunk in raw.split(";") if chunk.strip()]


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _validate_keys(parser: configparser.ConfigParser) -> None:
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")


def load_config(path, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        parser.read_string(path.read_text())
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _validate_keys(parser)

    def get(section, key, kind, default):
        if section not in parser or key not in parser[section]:
            return default
        raw = parser[section][key]
        try:
            if kind == "int":
                return int(raw)
            if kind == "float":
                return float(raw)
            if kind == "bool":
                return _parse_bool(raw)
            if kind == "point":
                return _parse_point(raw)
            if kind == "list":
                return tuple(x.strip() for x in raw.split(",") if x.strip())
            return raw.strip()
        except (ValueError, ConfigError) as exc:
            raise ConfigError(
                f"[{section}] {key} = {raw!r}: {exc}") from exc

    version = get("meta", "schema_version", "int", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version}")
    seed = seed_override if seed_override is not None else get("meta", "seed", "int", 7)
    out_dir = Path(out_override if out_override is not None
                   else get("meta", "out_dir", "str", "runs/toy"))

    task = TaskSpec(
        dof=get("task", "dof", "int", 2),
        image_size=get("task", "image_size", "int", 32),
        sprite_radius=get("task", "sprite_radius", "float", 3.0),
        target=get("task", "target", "point", (0.7, 0.7)),
        a_max=get("task", "a_max", "float", 0.05),
    )

    pattern_raw = get("demos", "pattern", "str", "straight")
    try:
        pattern = Pattern(pattern_raw)
    except ValueError:
        raise ConfigError(f"unknown demo pattern {pattern_raw!r}") from None
    starts_raw = get("demos", "starts", "str", "auto")
    demo_cfg = DemoConfig(
        count=get("demos", "count", "int", 3),
        pattern=pattern,
        steps=get("demos", "steps", "int", 16),
        starts=_parse_starts(starts_raw),
        executor=get("demos", "executor", "bool", True),
        arc_bulge=get("demos", "arc_bulge", "float", 0.25),
    )
    if demo_cfg.count < 1:
        raise ConfigError("demos.count must be >= 1")
    if demo_cfg.starts is not None and len(demo_cfg.starts) != demo_cfg.count:
        raise ConfigError(
            f"demos.starts lists {len(demo_cfg.starts)} points but count is "
            f"{demo_cfg.count}")

    requested = get("methods", "train", "list", ("ae", "vae", "bvae", "sae"))
    for name in requested:
        if name not in KNOWN_METHODS:
            raise ConfigError(f"unknown method {name!r} in methods.train")

    def hidden_of(section, default=(256, 64)):
        raw = get(section, "hidden", "list", None)
        if raw is None:
            return default
        return tuple(int(x) for x in raw)

    methods: Dict[str, MethodConfig] = {}
    for name in requested:
        section = f"method.{name}"
        train_cfg = TrainConfig(
            epochs=get(section, "epochs", "int", 600),
            batch_size=get(section, "batch_size", "int", 16),
            learning_rate=get(section, "learning_rate", "float", 2e-3),
            seed=seed,
        )
        if name == "sae":
            spec = EncoderSpec(
                method=Method.SAE,
                image_size=task.image_size,
                sae_channels=get(section, "channels", "int", 8),
                sae_conv1_channels=get(section, "conv1_channels", "int", 8),
                sae_decoder_hidden=get(section, "decoder_hidden", "int", 64),
                temperature=get(section, "temperature", "float", 4.0),
                seed=seed,
            )
        else:
            spec = EncoderSpec(
                method=Method(name),
                image_size=task.image_size,
                latent_dim=get(section, "latent_dim", "int", 50),
                alpha=get(section, "alpha", "float", 0.12) if name == "bvae" else None,
                hidden=hidden_of(section),
                seed=seed,
            )
        methods[name] = MethodConfig(spec=spec, train=train_cfg)

    default_controllable = tuple(m for m in ("bvae", "sae") if m in methods)
    analysis = AnalysisConfig(
        tau=get("analysis", "tau", "float", DEFAULT_TAU),
        grid_n=get("analysis", "grid_n", "int", 64),
        alpha_sweep=tuple(float(a) for a in
                          get("analysis", "alpha_sweep", "list", ("0.1", "1", "10"))),
        alpha_sweep_epochs=get("analysis", "alpha_sweep_epochs", "int", 800),
        collision_fraction=get("analysis", "collision_fraction", "float", 0.04),
        fieldmap_methods=get("analysis", "fieldmap_methods", "list",
                             default_controllable),
    )
    if not 0.0 < analysis.tau <= 1.0:
        raise ConfigError("analysis.tau must be in (0, 1]")
    if analysis.grid_n < 4:
        raise ConfigError("analysis.grid_n must be >= 4")
    for m in analysis.fieldmap_methods:
        if m not in methods:
            raise ConfigError(f"analysis.fieldmap_methods lists untrained method {m!r}")

    control = ControlConfig(
        methods=get("control", "methods", "list", default_controllable),
        trials=get("control", "trials", "int", 10),
        max_steps=get("control", "max_steps", "int", 80),
        goal_workspace_tol=get("control", "goal_workspace_tol", "float", 0.02),
        include_oracle=get("control", "include_oracle", "bool", True),
    )
    if control.trials < 1:
        raise ConfigError("control.trials must be >= 1")
    for m in control.methods:
        if m not in methods:
            raise ConfigError(f"control.methods lists untrained method {m!r}")

    uvs = UVSConfig(
        eps_explore=get("uvs", "eps_explore", "float", task.a_max),
        gain=get("uvs", "gain", "float", 0.5),
        damping=get("uvs", "damping", "float", 1e-3),
    )
    if uvs.eps_explore > task.a_max:
        raise ConfigError("uvs.eps_explore cannot exceed task.a_max")

    reinforce = ReinforceConfig(
        gamma=get("reinforce", "gamma", "float", 0.99),
        learning_rate=get("reinforce", "learning_rate", "float", 1e-4),
        episodes=get("reinforce", "episodes", "int", 240),
        horizon=get("reinforce", "horizon", "int", control.max_steps),
        batch_episodes=get("reinforce", "batch_episodes", "int", 8),
        r_goal=get("reinforce", "r_goal", "float", 10.0),
        k_gain=get("reinforce", "k_gain", "float", 0.5),
        init_log_std=get("reinforce", "init_log_std", "float", -1.5),
        policy_hidden=get("reinforce", "policy_hidden", "int", 16),
        seed=seed,
    )

    return ExperimentConfig(
        schema_version=version, seed=seed, out_dir=out_dir, task=task,
        demos=demo_cfg, methods=methods, analysis=analysis, control=control,
        uvs=uvs, reinforce=reinforce)
