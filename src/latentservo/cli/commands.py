"""Pipeline stages behind the CLI subcommands.

Each stage reads everything it needs from the run directory, writes its
artifacts there through the ``StageOutputs`` recorder it is given, and is
cached through the run manifest. A stage call first brings every stage
upstream of it up to date, each once and in table order (a cached one is
a no-op).
``STAGE_TABLE`` is the one place that says what each stage depends on:
the stages it needs and the config paths it reads.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis import (
    alpha_score,
    build_field_map,
    build_task_map,
    embodiment_compare,
    extract_time_varying,
    field_map_csv,
    injectivity_metric,
    monotonicity_metric,
    FactorSet,
    select_control_factors,
    suggest_collision_eps,
    task_map_csv,
)
from ..control import (
    GuidedReinforceController,
    Policy,
    SuccessStats,
    UVSController,
    calibrate_goal_tolerance,
    episode_trace_csv,
    evaluate_success,
    model_sensor,
    oracle_sensor,
    target_factors,
    train_policy,
)
from ..plain import plain
from ..representations import (
    Method,
    ModelWeights,
    load as load_weights,
    save as save_weights,
    train as train_model,
)
from ..toyenv import (
    DemoSequence,
    SpriteKind,
    generate_demo,
    load_demo,
    random_start,
    save_demo,
)
from .config import ExperimentConfig
from .manifest import RunManifest, StageOutputs, run_stage
from .svgplot import heatmap, line_chart


class StageFailure(RuntimeError):
    """A pipeline stage could not produce its artifacts."""


# --------------------------------------------------------------- demo layout

def load_demo_set(cfg: ExperimentConfig, sprite: str) -> List[DemoSequence]:
    """The ``demos.count`` demos ``demo-gen`` recorded for ``sprite``, by
    index: a directory beside them that it did not record is not read."""
    return [load_demo(cfg.out_dir / "demos" / sprite / f"demo_{i:03d}")
            for i in range(cfg.demos.count)]


def _demo_starts(cfg: ExperimentConfig) -> List[np.ndarray]:
    if cfg.demos.starts is not None:
        return [np.asarray(s, dtype=np.float64) for s in cfg.demos.starts]
    rng = np.random.default_rng(cfg.stage_seed("demo-gen"))
    return [random_start(cfg.task, rng, min_target_dist=0.3)
            for _ in range(cfg.demos.count)]


def stage_demo_gen(cfg: ExperimentConfig, out: StageOutputs) -> None:
    starts = _demo_starts(cfg)
    # A demo directory's digest covers every file in it, so no file of an
    # earlier run may stay.
    shutil.rmtree(cfg.out_dir / "demos", ignore_errors=True)
    sprites = [("teacher", SpriteKind.TEACHER)]
    if cfg.demos.executor:
        sprites.append(("executor", SpriteKind.EXECUTOR))
    for label, sprite in sprites:
        spec = cfg.task.with_sprite(sprite)
        for i, start in enumerate(starts):
            demo = generate_demo(spec, cfg.demos.pattern, start, cfg.demos.steps,
                                 seed=cfg.stage_seed(f"demo-{label}-{i}"),
                                 arc_bulge=cfg.demos.arc_bulge)
            save_demo(demo, out.path(f"demos/{label}/demo_{i:03d}"))


# -------------------------------------------------------------------- models

def load_model(cfg: ExperimentConfig, name: str) -> ModelWeights:
    return load_weights(cfg.out_dir / "models" / f"{name}.lsrv",
                        expect_method=Method(name))


def stage_train(cfg: ExperimentConfig, out: StageOutputs) -> None:
    demos = load_demo_set(cfg, "teacher")
    for name, mc in cfg.methods.items():
        model, curve = train_model(mc.spec, demos, mc.train)
        save_weights(model, out.path(f"models/{name}.lsrv"))
        out.write(f"models/{name}_loss.csv", "epoch,loss\n" + "".join(
            f"{i},{v:.8g}\n" for i, v in enumerate(curve)))


# ------------------------------------------------------------------ analysis

def stage_taskmap(cfg: ExperimentConfig, out: StageOutputs) -> None:
    demos = load_demo_set(cfg, "teacher")
    for name in cfg.methods:
        model = load_model(cfg, name)
        tm = build_task_map(model, demos[0])
        out.write(f"analysis/taskmap_{name}.csv", task_map_csv(tm))
        ts = list(range(len(tm)))
        series = [(f"dim {d}", ts, tm.values[:, d].tolist())
                  for d in range(min(tm.latent_dim, 16))]
        out.write(f"analysis/taskmap_{name}.svg", line_chart(
            series, title=f"task map — {name}", x_label="time step",
            y_label="latent value"))


def load_factors(cfg: ExperimentConfig, name: str) -> Dict[str, FactorSet]:
    data = json.loads((cfg.out_dir / "analysis" / f"factors_{name}.json").read_text())
    out = {"all": FactorSet.from_dict(data["all"])}
    if data.get("control") is not None:
        out["control"] = FactorSet.from_dict(data["control"])
    return out


def stage_factors(cfg: ExperimentConfig, out: StageOutputs) -> None:
    demos = load_demo_set(cfg, "teacher")
    for name in cfg.methods:
        model = load_model(cfg, name)
        maps = [build_task_map(model, d) for d in demos]
        fs = extract_time_varying(maps, cfg.analysis.tau)
        payload = {"all": plain(fs), "control": None}
        try:
            control = select_control_factors(fs, cfg.task.dof, Method(name))
            payload["control"] = plain(control)
        except ValueError as exc:
            payload["control_error"] = str(exc)
        out.write(f"analysis/factors_{name}.json",
                  json.dumps(payload, indent=1, sort_keys=True))


def stage_alpha_sweep(cfg: ExperimentConfig, out: StageOutputs) -> None:
    if "bvae" not in cfg.methods:
        raise StageFailure("alpha sweep needs a [method.bvae] section")
    demos = load_demo_set(cfg, "teacher")
    base = cfg.methods["bvae"]
    rows = []
    for alpha in cfg.analysis.alpha_sweep:
        spec = replace(base.spec, alpha=float(alpha))
        train_cfg = replace(base.train, epochs=cfg.analysis.alpha_sweep_epochs)
        model, _ = train_model(spec, demos, train_cfg)
        maps = [build_task_map(model, d) for d in demos]
        score = float(np.mean([alpha_score(tm) for tm in maps]))
        n_factors = len(extract_time_varying(maps, cfg.analysis.tau))
        rows.append({"alpha": float(alpha), "score": score,
                     "time_varying_factors": n_factors})
    rows.sort(key=lambda r: -r["score"])
    out.write("analysis/alpha_sweep.csv", "alpha,score,time_varying_factors\n"
              + "".join(f"{r['alpha']:.6g},{r['score']:.8g},{r['time_varying_factors']}\n"
                        for r in rows))
    out.write("analysis/alpha_sweep.json", json.dumps(rows, indent=1))


def stage_fieldmap(cfg: ExperimentConfig, out: StageOutputs) -> None:
    metrics = {}
    for name in cfg.analysis.fieldmap_methods:
        model = load_model(cfg, name)
        sets = load_factors(cfg, name)
        factors = sets.get("control") or sets["all"]
        fm = build_field_map(model_sensor(model, factors, cfg.task), factors,
                             cfg.analysis.grid_n)
        out.write(f"analysis/fieldmap_{name}.csv", field_map_csv(fm))
        grid = fm.grid_view()
        for j, dim in enumerate(factors.indices):
            out.write(f"analysis/fieldmap_{name}_f{dim}.svg", heatmap(
                grid[:, :, j], title=f"{name} factor {dim} over task space",
                target_cell=cfg.task.target))
        eps_c = suggest_collision_eps(fm, cfg.analysis.collision_fraction)
        metrics[name] = {
            "monotonicity": plain(monotonicity_metric(fm)),
            "collision_eps": eps_c,
            "collision_fraction": injectivity_metric(fm, eps_c),
            "factor_indices": list(factors.indices),
        }
    out.write("analysis/fieldmap_metrics.json",
              json.dumps(metrics, indent=1, sort_keys=True))


def stage_embodiment(cfg: ExperimentConfig, out: StageOutputs) -> None:
    if not cfg.demos.executor:
        raise StageFailure("embodiment comparison needs demos.executor = true")
    teacher = load_demo_set(cfg, "teacher")
    executor = load_demo_set(cfg, "executor")
    report = {name: embodiment_compare(load_model(cfg, name), teacher, executor,
                                       cfg.analysis.tau)
              for name in cfg.methods}
    out.write("analysis/embodiment.json",
              json.dumps(plain(report), indent=1, sort_keys=True))


# ------------------------------------------------------------------- control

def _control_setup(cfg: ExperimentConfig, name: str):
    model = load_model(cfg, name)
    sets = load_factors(cfg, name)
    if "control" not in sets:
        raise StageFailure(
            f"{name} has no usable control factors (see factors_{name}.json)")
    factors = sets["control"]
    sensor = model_sensor(model, factors, cfg.task)
    z_star = target_factors(sensor, cfg.task)
    eps_goal = calibrate_goal_tolerance(sensor, cfg.task,
                                        cfg.control.goal_workspace_tol)
    return sensor, z_star, eps_goal


def _trials(cfg: ExperimentConfig, make_controller, sensor, z_star, eps_goal: float,
            seed_label: str) -> SuccessStats:
    """``[control] trials`` seeded episodes, one controller from
    ``make_controller`` each."""
    return evaluate_success(make_controller, cfg.task, sensor, z_star, eps_goal,
                            cfg.control.max_steps, cfg.control.trials,
                            seed=cfg.stage_seed(seed_label), r_goal=cfg.reinforce.r_goal)


def stage_servo(cfg: ExperimentConfig, out: StageOutputs) -> None:
    for name in cfg.control.methods:
        sensor, z_star, eps_goal = _control_setup(cfg, name)
        stats = _trials(cfg, lambda: UVSController(cfg.uvs, cfg.task), sensor, z_star,
                        eps_goal, "servo")
        out.write(f"control/servo_{name}_stats.json", _stats_json(stats, eps_goal))
        for i, ep in enumerate(stats.episodes):
            out.write(f"control/servo_{name}_trial{i:02d}.csv", episode_trace_csv(ep))


def _stats_json(stats: SuccessStats, eps_goal: float) -> str:
    return json.dumps({**stats.to_dict(), "eps_goal": eps_goal}, indent=1, sort_keys=True)


def _policy_to_json(policy: Policy) -> dict:
    return {"k": policy.k, "dof": policy.dof,
            "params": {k: v.data.tolist() for k, v in policy.params.items()}}


def stage_reinforce(cfg: ExperimentConfig, out: StageOutputs) -> None:
    for name in cfg.control.methods:
        sensor, z_star, eps_goal = _control_setup(cfg, name)
        policy, rewards = train_policy(cfg.task, sensor, z_star, cfg.reinforce,
                                       eps_goal)
        out.write(f"control/reinforce_{name}_rewards.csv", "episode,reward\n"
                  + "".join(f"{i},{r:.8g}\n" for i, r in enumerate(rewards)))
        out.write(f"control/reinforce_{name}_rewards.svg", line_chart(
            [("episode reward", list(range(len(rewards))), rewards)],
            title=f"guided policy-gradient training — {name}",
            x_label="episode", y_label="episode reward"))
        out.write(f"control/reinforce_{name}_policy.json",
                  json.dumps(_policy_to_json(policy), indent=1))
        stats = _trials(
            cfg, lambda: GuidedReinforceController(policy, cfg.task, cfg.reinforce.k_gain),
            sensor, z_star, eps_goal, "reinforce-eval")
        out.write(f"control/reinforce_{name}_stats.json", _stats_json(stats, eps_goal))


def stage_evaluate(cfg: ExperimentConfig, out: StageOutputs) -> None:
    out_dir = cfg.out_dir / "control"
    table: Dict[str, Dict[str, float]] = {}
    for name in cfg.control.methods:
        row = {}
        for controller in ("servo", "reinforce"):
            stats = json.loads((out_dir / f"{controller}_{name}_stats.json").read_text())
            row["uvs" if controller == "servo" else "reinforce"] = stats["success_rate"]
        table[name] = row
    if cfg.control.include_oracle:
        sensor = oracle_sensor(cfg.task)
        z_star = target_factors(sensor, cfg.task)
        eps_goal = cfg.control.goal_workspace_tol
        uvs_stats = _trials(cfg, lambda: UVSController(cfg.uvs, cfg.task), sensor,
                            z_star, eps_goal, "oracle-eval")
        fresh = Policy.create(cfg.task.dof, cfg.task.dof,
                              hidden=cfg.reinforce.policy_hidden,
                              init_log_std=cfg.reinforce.init_log_std,
                              seed=cfg.reinforce.seed)
        gr_stats = _trials(
            cfg, lambda: GuidedReinforceController(fresh, cfg.task, cfg.reinforce.k_gain),
            sensor, z_star, eps_goal, "oracle-eval")
        table["oracle"] = {"uvs": uvs_stats.success_rate,
                           "reinforce": gr_stats.success_rate}
    out.write("control/evaluate.json",
              json.dumps({"success_rate": table}, indent=1, sort_keys=True))


# -------------------------------------------------------------------- report

def _table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    """A markdown section: ``title`` over a table of ``rows``; none without rows."""
    if not rows:
        return []
    return [f"## {title}", "", "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
            *("| " + " | ".join(map(str, row)) + " |" for row in rows), ""]


def _statuses(manifest: RunManifest, tree: Optional[dict]) -> Dict[str, str]:
    """Each recorded stage's status. Given the config's ``plain`` tree, a
    done stage is STALE when its recorded key is not the one it would run
    under now or one of its dependencies is stale; only keys are compared."""
    status = {stage: str(entry.get("status", "?")).upper()
              for stage, entry in manifest.stages.items()}
    if tree is not None:
        for stage, (_, deps, _) in STAGE_TABLE.items():
            if status.get(stage) != "DONE":
                continue
            if any(status.get(dep) == "STALE" for dep in deps) or \
                    manifest.stages[stage].get("key") != stage_key(tree, manifest, stage):
                status[stage] = "STALE"
    return status


def stage_report(out: StageOutputs, manifest: RunManifest,
                 tree: Optional[dict] = None) -> None:
    """``report.md``: every stage's status and outputs, then the results of
    the done ones. Without the config's ``plain`` tree (``report --out``)
    each stage shows the status it recorded."""
    status = _statuses(manifest, tree)

    def results(stage: str) -> Dict[str, object]:
        """The JSON files ``stage`` recorded, by stem; none unless it is done."""
        if status.get(stage) != "DONE":
            return {}
        return {p.stem: json.loads(p.read_text())
                for p in map(Path, manifest.outputs(stage))
                if p.suffix == ".json" and p.is_file()}

    stages = [(stage, status.get(stage, "SKIPPED"), "<br>".join(
        Path(o).name for o in manifest.stages.get(stage, {}).get("outputs", [])))
        for stage in STAGE_TABLE]
    factors = [(stem.replace("factors_", ""), len(data["all"]["indices"]),
                data["all"]["indices"]) for stem, data in results("factors").items()]
    geometry = [(name, f"{m['monotonicity']['x']:.3f}", f"{m['monotonicity']['y']:.3f}",
                 f"{m['collision_fraction']:.4f}") for name, m in
                sorted(results("fieldmap").get("fieldmap_metrics", {}).items())]
    sweep = [(r["alpha"], f"{r['score']:.4f}", r["time_varying_factors"])
             for r in results("alpha-sweep").get("alpha_sweep", [])]
    transfer = [(name, f"{r['jaccard']:.2f}", f"{r['mean_correlation']:.3f}",
                 f"{r['final_latent_distance']:.4f}", r["verdict"]) for name, r in
                sorted(results("embodiment").get("embodiment", {}).items())]
    rates = results("evaluate").get("evaluate", {}).get("success_rate", {})
    success = [(name, f"{row['uvs']:.0%}", f"{row['reinforce']:.0%}")
               for name, row in sorted(rates.items())]

    lines = ["# latentservo run report", "",
             f"- config digest: `{manifest.config_digest}`",
             f"- tool version: {manifest.tool_version}", "",
             *_table("Stages", ("stage", "status", "outputs"), stages),
             *_table("Time-varying factors", ("method", "count", "indices"), factors),
             *_table("Field-map geometry",
                     ("method", "mono x", "mono y", "collision fraction"), geometry),
             *_table("Alpha sweep (sorted by variance-smoothness score)",
                     ("alpha", "score", "factors"), sweep),
             *_table("Embodiment transfer (teacher-trained, executor demos)",
                     ("method", "jaccard", "mean corr", "final latent dist", "verdict"),
                     transfer),
             *_table("Success rates", ("method", "UVS", "guided policy gradient"),
                     success)]
    out.write("report.md", "\n".join(lines) + "\n")


# ---------------------------------------------------------------- dispatcher

# Every cached stage in pipeline order, each after its dependencies:
# stage -> (runner, dependencies, config reads). A dependency's key covers
# everything upstream of it, so only the nearest stages are listed. A config path is dotted into
# ``plain(cfg)``; a whole section is declared wherever a stage reads more
# than a key or two of it.
STAGE_TABLE: Dict[str, Tuple[Callable[..., None], Tuple[str, ...], Tuple[str, ...]]] = {
    "demo-gen": (stage_demo_gen, (), ("schema_version", "seed", "task", "demos")),
    "train": (stage_train, ("demo-gen",), ("methods",)),
    "taskmap": (stage_taskmap, ("train",), ("methods",)),
    "factors": (stage_factors, ("train",),
                ("methods", "task.dof", "analysis.tau")),
    "alpha-sweep": (stage_alpha_sweep, ("demo-gen",),
                    ("methods.bvae", "analysis.alpha_sweep",
                     "analysis.alpha_sweep_epochs", "analysis.tau")),
    "fieldmap": (stage_fieldmap, ("factors",),
                 ("task", "analysis.fieldmap_methods", "analysis.grid_n",
                  "analysis.collision_fraction")),
    "embodiment": (stage_embodiment, ("train",),
                   ("methods", "demos.executor", "analysis.tau")),
    "servo": (stage_servo, ("factors",),
              ("seed", "task", "control", "uvs", "reinforce.r_goal")),
    "reinforce": (stage_reinforce, ("factors",),
                  ("seed", "task", "control", "reinforce")),
    "evaluate": (stage_evaluate, ("servo", "reinforce"),
                 ("seed", "task", "control", "uvs", "reinforce")),
}


def _lookup(tree, path: str):
    """The value at a dotted config path; None where a section is absent."""
    for part in path.split("."):
        tree = tree.get(part) if isinstance(tree, dict) else None
    return tree


def stage_key(tree: dict, manifest: RunManifest, stage: str) -> str:
    """The cache key ``stage`` runs under: its config reads out of ``tree``
    (``plain(cfg)``) and its inputs' recorded keys and output digests."""
    _, deps, reads = STAGE_TABLE[stage]
    return manifest.key({path: _lookup(tree, path) for path in reads}, deps)


def _upstream(stage: str) -> List[str]:
    """Every stage ``stage`` depends on, directly or not, in table order."""
    needed = {stage}
    for name in reversed(STAGE_TABLE):
        if name in needed:
            needed.update(STAGE_TABLE[name][1])
    return [name for name in STAGE_TABLE if name in needed and name != stage]


def ensure_stage(cfg: ExperimentConfig, tree: dict, manifest: RunManifest,
                 stage: str, force: bool = False, log=print) -> None:
    """Bring each upstream stage up to date once, in table order, then
    ``stage`` itself, which ``force`` re-runs. ``tree`` is ``plain(cfg)``."""
    for name in _upstream(stage) + [stage]:
        runner = STAGE_TABLE[name][0]
        run_stage(manifest, name, stage_key(tree, manifest, name),
                  force and name == stage,
                  lambda out, runner=runner: runner(cfg, out), log=log)
