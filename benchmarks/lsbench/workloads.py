"""The three workloads: train, control and pipeline.

Each workload sets up from the workload seed, then runs fixed rounds of
work until the run's time is used up. The program is driven only through
public entry points, always looked up on the package at call time so that
a traced round sees the tracer's wrappers. Every timing is CPU time, of
the process and of the child that the pipeline set-up starts: on a shared
virtual machine wall time also counts the time the machine was handed to
other guests, which is not the program's cost. The timings leave out the
runs of the speed gauge's reference (``speed.Gauge``), which interrupts
the program every few hundredths of a CPU second.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

import latentservo
import latentservo.analysis as analysis
import latentservo.control as control
import latentservo.representations as rep
import latentservo.toyenv as toyenv
from latentservo.cli import main as cli_main

from .helpers import derive_seed, demo_starts, make_ini
from .metrics import PHASES, STAGES
from .speed import Gauge
from .tracing import CountingSensor, Tracer

TASK = toyenv.TaskSpec()
DEMO_COUNT = 3
DEMO_STEPS = 16                 # 3 demos x 17 frames = 51 frames
LEARNING_RATE = 2e-3
BATCH = 16

BVAE_EPOCHS = 8
SAE_EPOCHS = 16
CONTROL_SAE_EPOCHS = 120
TRIALS = 10
MAX_STEPS = 80
REINFORCE_EPISODES = 8
GOAL_WORKSPACE_TOL = 0.02

# ``report`` is not a cached stage: the CLI regenerates it on every call.
UNCACHED_STAGES = {"report"}
BASE_REINFORCE_LR = 1e-4
EDITED_REINFORCE_LR = 2e-4

# Where the program under measurement was imported from.
SRC_DIR = Path(latentservo.__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parents[1]
# The pipeline set-up's child loads the config as the CLI does, under a
# gauge whose account it prints for the parent's gauge.
_CLI_START = """\
import json, sys
from lsbench.speed import Gauge, clock
t0 = clock()
gauge = Gauge()
gauge_setup_s = clock() - t0
with gauge.timing():
    from latentservo.cli import load_config
    load_config(sys.argv[1])
print(json.dumps({"spent": gauge_setup_s + gauge.spent, "samples": gauge.samples}))
"""
_LOG_LINE = re.compile(r"^\[([a-z-]+)\] (running|up to date, skipping)$", re.M)


@dataclass
class Round:
    """One round of a workload's work, timed in CPU seconds."""

    units: float                  # work done: frames, states or invocations
    cpu_s: float                  # the program's, reference runs left out
    detail: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    phases: Dict[str, dict] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)   # failed checks

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def seeded_demos(seed: int) -> List[toyenv.DemoSequence]:
    return [toyenv.generate_demo(TASK, toyenv.Pattern.STRAIGHT, start, DEMO_STEPS)
            for start in demo_starts(seed, DEMO_COUNT)]


def weight_bytes(model) -> bytes:
    return b"".join(model.params[k].data.tobytes() for k in sorted(model.params))


# ---------------------------------------------------------------------- train

class TrainWorkload:
    """Fit a BVAE (FC trunk, about 570k parameters) and an SAE per round."""

    unit = "frames trained"
    setup_repeats = 101
    min_rounds = 2

    def __init__(self, seed: int, tracer: Tracer, gauge: Gauge):
        self.seed = seed
        self.gauge = gauge
        self.fits = {
            "bvae": (rep.EncoderSpec(method=rep.Method.BVAE, latent_dim=50, alpha=0.12,
                                     seed=seed),
                     rep.TrainConfig(epochs=BVAE_EPOCHS, batch_size=BATCH,
                                     learning_rate=LEARNING_RATE, seed=seed)),
            "sae": (rep.EncoderSpec(method=rep.Method.SAE, sae_channels=8,
                                    temperature=4.0, seed=seed),
                    rep.TrainConfig(epochs=SAE_EPOCHS, batch_size=BATCH,
                                    learning_rate=LEARNING_RATE, seed=seed)),
        }
        self.first_weights: Dict[str, bytes] = {}

    def setup(self) -> None:
        self.demos = seeded_demos(self.seed)
        self.frames = sum(len(d) for d in self.demos)

    def round(self) -> Round:
        r = Round(units=0.0, cpu_s=0.0)
        for method, (spec, config) in self.fits.items():
            r.attempted += 1
            mark = self.gauge.mark()
            try:
                model, curve = rep.train(spec, self.demos, config)
            except rep.TrainingDiverged as exc:
                r.failed += 1
                r.check(False, f"{method}: {exc}")
                continue
            dt = self.gauge.cpu_since(mark)
            frames = self.frames * config.epochs
            r.units += frames
            r.cpu_s += dt
            r.detail[f"train.{method}.samples_per_s"] = frames / dt
            r.detail[f"train.{method}.final_loss"] = curve[-1]
            r.check(all(np.isfinite(curve)), f"{method}: non-finite loss in {curve}")
            r.check(curve[-1] < curve[0],
                    f"{method}: final loss {curve[-1]} not below "
                    f"first-batch loss {curve[0]}")
            weights = weight_bytes(model)
            first = self.first_weights.setdefault(method, weights)
            r.check(weights == first, f"{method}: two fits with one seed differ")
        return r

    def final_checks(self, rounds: List[Round]) -> List[str]:
        return [] if len(rounds) >= 2 else ["train needs two fits per method"]


# -------------------------------------------------------------------- control

class ControlWorkload:
    """UVS and guided REINFORCE on a trained SAE's model sensor."""

    unit = "states sensed"
    setup_repeats = 5
    min_rounds = 2

    def __init__(self, seed: int, tracer: Tracer, gauge: Gauge):
        self.seed = seed
        self.tracer = tracer
        self.gauge = gauge
        self.trial_seed = derive_seed(seed, "trials")
        self.reinforce = control.ReinforceConfig(
            episodes=REINFORCE_EPISODES, horizon=MAX_STEPS, batch_episodes=8,
            seed=derive_seed(seed, "reinforce"))
        self.z_stars: List[bytes] = []

    def setup(self) -> None:
        demos = seeded_demos(self.seed)
        spec = rep.EncoderSpec(method=rep.Method.SAE, sae_channels=8, temperature=4.0,
                               seed=self.seed)
        model, _ = rep.train(spec, demos, rep.TrainConfig(
            epochs=CONTROL_SAE_EPOCHS, batch_size=BATCH, learning_rate=LEARNING_RATE,
            seed=self.seed))
        maps = [analysis.build_task_map(model, d) for d in demos]
        factors = analysis.select_control_factors(
            analysis.extract_time_varying(maps, analysis.DEFAULT_TAU), TASK.dof,
            rep.Method.SAE)
        self.sensor = control.model_sensor(model, factors, TASK)
        self.z_star = control.target_factors(self.sensor, TASK)
        self.eps_goal = control.calibrate_goal_tolerance(self.sensor, TASK,
                                                         GOAL_WORKSPACE_TOL)
        self.z_stars.append(self.z_star.tobytes())

    def evaluate(self, factory, sensor, z_star, eps_goal):
        return control.evaluate_success(factory, TASK, sensor, z_star, eps_goal,
                                        MAX_STEPS, TRIALS, seed=self.trial_seed)

    def round(self) -> Round:
        r = Round(units=0.0, cpu_s=0.0)
        sensor = CountingSensor(self.sensor, self.tracer)

        mark = self.gauge.mark()
        uvs = self.evaluate(lambda: control.UVSController(control.UVSConfig(), TASK),
                            sensor, self.z_star, self.eps_goal)
        uvs_cpu, uvs_states = self.gauge.cpu_since(mark), sensor.states

        mark = self.gauge.mark()
        policy, rewards = control.train_policy(TASK, sensor, self.z_star,
                                               self.reinforce, self.eps_goal)
        guided = self.evaluate(
            lambda: control.GuidedReinforceController(policy, TASK,
                                                      self.reinforce.k_gain),
            sensor, self.z_star, self.eps_goal)
        rf_cpu, rf_states = self.gauge.cpu_since(mark), sensor.states - uvs_states

        episodes = uvs.episodes + guided.episodes
        r.attempted = len(episodes) + len(rewards)
        r.failed = (sum(e.aborted for e in episodes)
                    + sum(not np.isfinite(x) for x in rewards))
        r.units = float(sensor.states)
        r.cpu_s = uvs_cpu + rf_cpu
        r.detail = {
            "control.uvs.env_steps_per_s": uvs_states / uvs_cpu,
            "control.reinforce.env_steps_per_s": rf_states / rf_cpu,
            "control.uvs.success_rate": uvs.success_rate,
            "control.reinforce.success_rate": guided.success_rate,
            "control.states_per_round": float(sensor.states),
        }
        # An episode aborts when its controller emits a non-finite action.
        r.check(r.failed == 0, f"{r.failed} control episodes aborted or diverged")
        r.check(all(np.isfinite(p.data).all() for p in policy.params.values()),
                "non-finite policy parameters after REINFORCE")
        return r

    def final_checks(self, rounds: List[Round]) -> List[str]:
        problems = []
        if len(set(self.z_stars)) != 1:
            problems.append("repeated set-ups disagree on z*")
        keys = ("control.uvs.success_rate", "control.reinforce.success_rate",
                "control.states_per_round")
        if len({tuple(r.detail[k] for k in keys) for r in rounds}) != 1:
            problems.append("rounds with one seed gave different control results")
        oracle = control.oracle_sensor(TASK)
        z_star = control.target_factors(oracle, TASK)
        fresh = control.Policy.create(TASK.dof, TASK.dof,
                                      hidden=self.reinforce.policy_hidden,
                                      init_log_std=self.reinforce.init_log_std,
                                      seed=self.reinforce.seed)
        for label, factory in (
                ("UVS", lambda: control.UVSController(control.UVSConfig(), TASK)),
                ("fresh guided policy", lambda: control.GuidedReinforceController(
                    fresh, TASK, self.reinforce.k_gain))):
            stats = self.evaluate(factory, oracle, z_star, GOAL_WORKSPACE_TOL)
            if stats.success_rate != 1.0:
                problems.append(f"oracle sensor with {label} scored "
                                f"{stats.success_rate}, not 1.0")
        return problems


# ------------------------------------------------------------------- pipeline

def snapshot(root: Path) -> Dict[str, tuple]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


class PipelineWorkload:
    """Every CLI stage subcommand, cold, warm and after a [reinforce] edit."""

    unit = "stage invocations"
    setup_repeats = 5
    min_rounds = 1

    def __init__(self, seed: int, tracer: Tracer, gauge: Gauge, scratch: Path):
        self.seed = seed
        self.tracer = tracer
        self.gauge = gauge
        self.tmp = Path(tempfile.mkdtemp(prefix="pipeline-", dir=scratch))
        self.run_dir = self.tmp / "run"
        self.ini = self.tmp / "pipeline.ini"

    def setup(self) -> None:
        """Write the INI and start the CLI on it as a shell would: a fresh
        interpreter imports ``latentservo.cli`` and loads the config."""
        self.write_ini(BASE_REINFORCE_LR)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC_DIR), str(BENCH_DIR)]))
        child = subprocess.run([sys.executable, "-c", _CLI_START, str(self.ini)],
                               env=env, check=True, capture_output=True, text=True)
        account = json.loads(child.stdout.splitlines()[-1])
        self.gauge.absorb(account["spent"], account["samples"])

    def write_ini(self, reinforce_lr: float) -> None:
        self.ini.write_text(make_ini(self.seed, str(self.run_dir), reinforce_lr))

    def phase(self, name: str, r: Round) -> dict:
        before = snapshot(self.run_dir)
        out = {"stage_s": {}, "run": 0, "skipped": 0, "ran": [], "codes": []}
        for stage in STAGES:
            log = io.StringIO()
            mark = self.gauge.mark()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if self.tracer.active:
                    code = self.tracer.call(f"cli.stage.{stage}", cli_main,
                                            [stage, "--config", str(self.ini)])
                else:
                    code = cli_main([stage, "--config", str(self.ini)])
            out["stage_s"][stage] = self.gauge.cpu_since(mark)
            out["codes"].append(code)
            lines = _LOG_LINE.findall(log.getvalue())
            r.check(any(logged == stage for logged, _ in lines),
                    f"{name}: `{stage}` logged neither running nor skipping itself")
            for logged, verb in lines:
                if verb == "running":
                    out["run"] += 1
                    out["ran"].append(logged)
                else:
                    out["skipped"] += 1
        after = snapshot(self.run_dir)
        written = [p for p, sig in after.items() if before.get(p) != sig]
        out["files_written"] = len(written)
        out["bytes_written"] = sum(after[p][0] for p in written)
        out["cpu_s"] = sum(out["stage_s"].values())
        for artifact in ("control/evaluate.json", "report.md"):
            r.check((self.run_dir / artifact).is_file(),
                    f"{name}: {artifact} missing after the phase")
        return out

    def round(self) -> Round:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.write_ini(BASE_REINFORCE_LR)
        r = Round(units=0.0, cpu_s=0.0)
        for name in PHASES:
            if name == "reinforce_edit":
                self.write_ini(EDITED_REINFORCE_LR)
            ph = self.phase(name, r)
            r.phases[name] = ph
            r.attempted += len(ph["codes"])
            r.failed += sum(code != 0 for code in ph["codes"])
            r.units += len(ph["codes"])
            r.cpu_s += ph["cpu_s"]
            r.detail[f"pipeline.{name}_s"] = ph["cpu_s"]
        r.check(r.failed == 0, f"{r.failed} stage invocations exited non-zero: "
                + str({n: p["codes"] for n, p in r.phases.items()}))
        cached_runs = set(r.phases["warm"]["ran"]) - UNCACHED_STAGES
        r.check(not cached_runs,
                f"warm phase re-ran cached stages {sorted(cached_runs)}")
        return r

    def final_checks(self, rounds: List[Round]) -> List[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"train": TrainWorkload, "control": ControlWorkload,
             "pipeline": PipelineWorkload}
