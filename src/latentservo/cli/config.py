"""Experiment configuration: sectioned INI, schema-checked up front.

Every key is validated (type, range, allowed names) before any stage
runs; unknown sections or keys are rejected so sweep provenance stays
trustworthy. ``schema_version`` pins the layout. A key absent from the
INI takes the default of its dataclass field, of ``_DEFAULTS``, or one
derived from another section; every key's value but ``out_dir`` enters the digest.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..analysis import DEFAULT_TAU
from ..control import ReinforceConfig, UVSConfig
from ..plain import plain
from ..representations import ConfigError, EncoderSpec, Method, TrainConfig
from ..toyenv import Pattern, TaskSpec

SCHEMA_VERSION = 1
KNOWN_METHODS = ("ae", "vae", "bvae", "sae")


@dataclass
class DemoConfig:
    count: int = 3
    pattern: Pattern = Pattern.STRAIGHT
    steps: int = 16
    starts: Optional[List[Tuple[float, float]]] = None  # None -> seeded auto
    executor: bool = True
    arc_bulge: float = 0.25

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("demos.count must be >= 1")
        if self.starts is not None and len(self.starts) != self.count:
            raise ValueError(
                f"demos.starts lists {len(self.starts)} points but count is "
                f"{self.count}")
        for start in self.starts or ():
            if not all(0.0 <= c <= 1.0 for c in start):
                raise ValueError(f"demos.starts point {start} is outside [0, 1]^2")
        if self.steps < 1:
            raise ValueError("demos.steps must be >= 1")
        if self.pattern is Pattern.ARC and not self.arc_bulge > 0:
            raise ValueError("demos.arc_bulge must be positive for the arc pattern")


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

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("analysis.tau must be in (0, 1]")
        if self.grid_n < 4:
            raise ValueError("analysis.grid_n must be >= 4")
        if not self.collision_fraction > 0:
            raise ValueError("analysis.collision_fraction must be positive")
        if self.alpha_sweep_epochs < 1:
            raise ValueError("analysis.alpha_sweep_epochs must be >= 1")
        if not all(alpha > 0 for alpha in self.alpha_sweep):
            raise ValueError("analysis.alpha_sweep values must be positive")


@dataclass
class ControlConfig:
    methods: Tuple[str, ...] = ("bvae", "sae")
    trials: int = 10
    max_steps: int = 80
    goal_workspace_tol: float = 0.02
    include_oracle: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("control.trials must be >= 1")
        if self.max_steps < 1:
            raise ValueError("control.max_steps must be >= 1")
        if not self.goal_workspace_tol > 0:
            raise ValueError("control.goal_workspace_tol must be positive")


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

    def digest(self, tree: Optional[dict] = None) -> str:
        """The whole config's provenance line; stage keys decide caching.
        ``tree`` is ``plain(self)``, where the caller has it already."""
        tree = plain(self) if tree is None else tree
        # out_dir is where a run is written, not what it computes.
        kept = {key: value for key, value in tree.items() if key != "out_dir"}
        # The global seed again; left out so that existing runs keep their digest.
        kept["reinforce"] = {key: value for key, value in tree["reinforce"].items()
                             if key != "seed"}
        blob = json.dumps(kept, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def stage_seed(self, stage: str) -> int:
        h = hashlib.sha256(f"{self.seed}:{stage}".encode()).digest()
        return int.from_bytes(h[:4], "little")


_SCHEMA: Dict[str, Dict[str, str]] = {
    "meta": {"schema_version": "int", "seed": "int", "out_dir": "str"},
    "task": {"dof": "int", "image_size": "int", "sprite_radius": "float",
             "target": "point", "a_max": "float"},
    "demos": {"count": "int", "pattern": "pattern", "steps": "int",
              "starts": "starts", "executor": "bool", "arc_bulge": "float"},
    "methods": {"train": "names"},
    "method.ae": {"latent_dim": "int", "epochs": "int", "batch_size": "int",
                  "learning_rate": "float", "hidden": "ints"},
    "method.vae": {"latent_dim": "int", "epochs": "int", "batch_size": "int",
                   "learning_rate": "float", "hidden": "ints"},
    "method.bvae": {"latent_dim": "int", "alpha": "float", "epochs": "int",
                    "batch_size": "int", "learning_rate": "float", "hidden": "ints"},
    "method.sae": {"channels": "int", "conv1_channels": "int", "temperature": "float",
                   "decoder_hidden": "int", "epochs": "int", "batch_size": "int",
                   "learning_rate": "float"},
    "analysis": {"tau": "float", "grid_n": "int", "alpha_sweep": "floats",
                 "alpha_sweep_epochs": "int", "collision_fraction": "float",
                 "fieldmap_methods": "names"},
    "control": {"methods": "names", "trials": "int", "max_steps": "int",
                "goal_workspace_tol": "float", "include_oracle": "bool"},
    "uvs": {"eps_explore": "float", "gain": "float", "damping": "float"},
    "reinforce": {"gamma": "float", "learning_rate": "float", "episodes": "int",
                  "horizon": "int", "batch_episodes": "int", "r_goal": "float",
                  "k_gain": "float", "init_log_std": "float", "policy_hidden": "int"},
}


_METHOD_DEFAULTS = {"epochs": 600, "learning_rate": 2e-3}

# The constant defaults that are not the section dataclass's own: [meta]
# and [methods] have none, and some differ from the library's. The defaults
# derived from other sections are passed where their section is built.
_DEFAULTS: Dict[str, dict] = {
    "meta": {"seed": 7, "out_dir": "runs/toy"},
    "methods": {"train": KNOWN_METHODS},
    "method.ae": _METHOD_DEFAULTS,
    "method.vae": _METHOD_DEFAULTS,
    "method.bvae": {**_METHOD_DEFAULTS, "alpha": 0.12},
    "method.sae": {**_METHOD_DEFAULTS, "temperature": 4.0},
}

# [method.sae] keys under their EncoderSpec field names.
_SAE_FIELDS = {"channels": "sae_channels", "conv1_channels": "sae_conv1_channels",
               "decoder_hidden": "sae_decoder_hidden"}
_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _parse_float(raw: str) -> float:
    """A float; ``nan`` and ``inf`` are refused, as every range check compares."""
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_point(raw: str) -> Tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"expected 'x, y', got {raw!r}")
    return _parse_float(parts[0]), _parse_float(parts[1])


def _parse_starts(raw: str) -> Optional[List[Tuple[float, float]]]:
    raw = raw.strip()
    if raw == "auto":
        return None
    return [_parse_point(chunk) for chunk in raw.split(";") if chunk.strip()]


def _parse_pattern(raw: str) -> Pattern:
    try:
        return Pattern(raw.strip())
    except ValueError:
        raise ConfigError(f"unknown demo pattern {raw.strip()!r}") from None


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_names(raw: str) -> Tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


_KINDS = {
    "int": int, "float": _parse_float, "str": str.strip, "bool": _parse_bool,
    "point": _parse_point, "starts": _parse_starts, "pattern": _parse_pattern,
    "names": _parse_names,
    "ints": lambda raw: tuple(int(x) for x in _parse_names(raw)),
    "floats": lambda raw: tuple(_parse_float(x) for x in _parse_names(raw)),
}


def _read(path: Path) -> Dict[str, dict]:
    """The keys present in the INI, each checked against and parsed by ``_SCHEMA``."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        parser.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    present: Dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        present[section] = {}
        # one map per section: a SectionProxy builds a ChainMap for each key it reads
        values = dict(parser.items(section))
        for key in parser.options(section):     # the section's own keys first
            raw = values[key]
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            try:
                present[section][key] = _KINDS[_SCHEMA[section][key]](raw)
            except ValueError as exc:  # ConfigError included
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    return present


def _library(cls, keys: dict):
    """A section's dataclass, whose plain ValueError becomes a ConfigError."""
    try:
        return cls(**keys)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    present = _read(Path(path))

    def keys(section: str, **derived) -> dict:
        """The section's ``_DEFAULTS`` and ``derived`` defaults under its present keys."""
        return {**_DEFAULTS.get(section, {}), **derived, **present.get(section, {})}

    meta = keys("meta")
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, got {version}")
    seed = seed_override if seed_override is not None else meta["seed"]
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_override if out_override is not None else meta["out_dir"])

    task = _library(TaskSpec, keys("task"))
    demos = _library(DemoConfig, keys("demos"))
    if demos.pattern is Pattern.ARC and task.dof < 2:
        raise ConfigError("demos.pattern = arc needs task.dof = 2")

    requested = keys("methods")["train"]
    for name in requested:
        if name not in KNOWN_METHODS:
            raise ConfigError(f"unknown method {name!r} in methods.train")
    methods = {}
    for name in requested:
        spec_keys = {_SAE_FIELDS.get(key, key): value
                     for key, value in keys(f"method.{name}").items()}
        train = TrainConfig(seed=seed, **{key: spec_keys.pop(key) for key in
                                          _TRAIN_FIELDS & spec_keys.keys()})
        spec = EncoderSpec(method=Method(name), image_size=task.image_size,
                           seed=seed, **spec_keys)
        methods[name] = MethodConfig(spec=spec, train=train)

    controllable = tuple(m for m in ("bvae", "sae") if m in methods)
    analysis = _library(AnalysisConfig, keys("analysis", fieldmap_methods=controllable))
    for m in analysis.fieldmap_methods:
        if m not in methods:
            raise ConfigError(f"analysis.fieldmap_methods lists untrained method {m!r}")

    control = _library(ControlConfig, keys("control", methods=controllable))
    for m in control.methods:
        if m not in methods:
            raise ConfigError(f"control.methods lists untrained method {m!r}")

    uvs = _library(UVSConfig, keys("uvs", eps_explore=task.a_max))
    if uvs.eps_explore > task.a_max:
        raise ConfigError("uvs.eps_explore cannot exceed task.a_max")
    reinforce = _library(ReinforceConfig,
                         keys("reinforce", horizon=control.max_steps, seed=seed))

    return ExperimentConfig(
        schema_version=version, seed=seed, out_dir=out_dir, task=task,
        demos=demos, methods=methods, analysis=analysis, control=control,
        uvs=uvs, reinforce=reinforce)
