"""Pipeline stages behind the CLI subcommands.

Each stage reads everything it needs from the run directory, writes its
artifacts there, and is cached through the run manifest. Stages pull in
their dependencies automatically (a cached dependency is a no-op).
"""

from __future__ import annotations

import json
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
    UVSController,
    calibrate_goal_tolerance,
    episode_trace_csv,
    evaluate_success,
    model_sensor,
    oracle_sensor,
    target_factors,
    train_policy,
)
from ..representations import (
    EncoderSpec,
    Method,
    ModelWeights,
    TrainConfig,
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
from .manifest import RunManifest, run_stage
from .svgplot import heatmap, line_chart


class StageFailure(RuntimeError):
    """A pipeline stage could not produce its artifacts."""


# --------------------------------------------------------------- demo layout

def _demo_dirs(cfg: ExperimentConfig, sprite: str) -> List[Path]:
    base = cfg.out_dir / "demos" / sprite
    return sorted(base.glob("demo_*"))


def load_demo_set(cfg: ExperimentConfig, sprite: str) -> List[DemoSequence]:
    dirs = _demo_dirs(cfg, sprite)
    if not dirs:
        raise StageFailure(f"no {sprite} demos under {cfg.out_dir}")
    return [load_demo(d) for d in dirs]


def _demo_starts(cfg: ExperimentConfig) -> List[np.ndarray]:
    if cfg.demos.starts is not None:
        return [np.asarray(s, dtype=np.float64) for s in cfg.demos.starts]
    rng = np.random.default_rng(cfg.stage_seed("demo-gen"))
    return [random_start(cfg.task, rng, min_target_dist=0.3)
            for _ in range(cfg.demos.count)]


def stage_demo_gen(cfg: ExperimentConfig) -> List[str]:
    starts = _demo_starts(cfg)
    outputs = []
    sprites = [("teacher", SpriteKind.TEACHER)]
    if cfg.demos.executor:
        sprites.append(("executor", SpriteKind.EXECUTOR))
    for label, sprite in sprites:
        spec = cfg.task.with_sprite(sprite)
        for i, start in enumerate(starts):
            demo = generate_demo(spec, cfg.demos.pattern, start, cfg.demos.steps,
                                 seed=cfg.stage_seed(f"demo-{label}-{i}"),
                                 arc_bulge=cfg.demos.arc_bulge)
            path = cfg.out_dir / "demos" / label / f"demo_{i:03d}"
            save_demo(demo, path)
            outputs.append(str(path))
    return outputs


# -------------------------------------------------------------------- models

def model_path(cfg: ExperimentConfig, name: str, latent_dim: Optional[int] = None) -> Path:
    suffix = f"_d{latent_dim}" if latent_dim is not None else ""
    return cfg.out_dir / "models" / f"{name}{suffix}.lsrv"


def load_model(cfg: ExperimentConfig, name: str) -> ModelWeights:
    path = model_path(cfg, name)
    if not path.exists():
        raise StageFailure(f"model {name} not trained yet ({path} missing)")
    return load_weights(path, expect_method=Method(name))


def stage_train(cfg: ExperimentConfig, only_method: Optional[str] = None,
                latent_dims: Optional[Sequence[int]] = None) -> List[str]:
    demos = load_demo_set(cfg, "teacher")
    outputs = []
    for name, mc in cfg.methods.items():
        if only_method is not None and name != only_method:
            continue
        variants: List[Optional[int]] = [None]
        if latent_dims and name != "sae":
            variants = list(latent_dims)
        for dim in variants:
            spec = mc.spec if dim is None else EncoderSpec.from_dict(
                {**mc.spec.to_dict(), "latent_dim": dim})
            model, curve = train_model(spec, demos, mc.train)
            path = model_path(cfg, name, dim)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_weights(model, path)
            tag = name if dim is None else f"{name}_d{dim}"
            loss_path = cfg.out_dir / "models" / f"{tag}_loss.csv"
            loss_path.write_text(
                "epoch,loss\n"
                + "".join(f"{i},{v:.8g}\n" for i, v in enumerate(curve)))
            outputs += [str(path), str(loss_path)]
    return outputs


# ------------------------------------------------------------------ analysis

def stage_taskmap(cfg: ExperimentConfig) -> List[str]:
    demos = load_demo_set(cfg, "teacher")
    out_dir = cfg.out_dir / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name in cfg.methods:
        model = load_model(cfg, name)
        tm = build_task_map(model, demos[0])
        csv_path = out_dir / f"taskmap_{name}.csv"
        csv_path.write_text(task_map_csv(tm))
        ts = list(range(len(tm)))
        series = [(f"dim {d}", ts, tm.values[:, d].tolist())
                  for d in range(tm.latent_dim)]
        svg_path = out_dir / f"taskmap_{name}.svg"
        svg_path.write_text(line_chart(
            [(lbl, xs, ys) for lbl, xs, ys in series][:16],
            title=f"task map — {name}", x_label="time step", y_label="latent value"))
        outputs += [str(csv_path), str(svg_path)]
    return outputs


def factors_path(cfg: ExperimentConfig, name: str) -> Path:
    return cfg.out_dir / "analysis" / f"factors_{name}.json"


def load_factors(cfg: ExperimentConfig, name: str) -> Dict[str, FactorSet]:
    path = factors_path(cfg, name)
    if not path.exists():
        raise StageFailure(f"factors for {name} not extracted yet ({path} missing)")
    data = json.loads(path.read_text())
    out = {"all": FactorSet.from_dict(data["all"])}
    if data.get("control") is not None:
        out["control"] = FactorSet.from_dict(data["control"])
    return out


def stage_factors(cfg: ExperimentConfig) -> List[str]:
    demos = load_demo_set(cfg, "teacher")
    out_dir = cfg.out_dir / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name in cfg.methods:
        model = load_model(cfg, name)
        maps = [build_task_map(model, d) for d in demos]
        fs = extract_time_varying(maps, cfg.analysis.tau)
        payload = {"all": fs.to_dict(), "control": None}
        try:
            control = select_control_factors(fs, cfg.task.dof, Method(name))
            payload["control"] = control.to_dict()
        except ValueError as exc:
            payload["control_error"] = str(exc)
        path = factors_path(cfg, name)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        outputs.append(str(path))
    return outputs


def stage_alpha_sweep(cfg: ExperimentConfig) -> List[str]:
    if "bvae" not in cfg.methods:
        raise StageFailure("alpha sweep needs a [method.bvae] section")
    demos = load_demo_set(cfg, "teacher")
    base = cfg.methods["bvae"]
    rows = []
    for alpha in cfg.analysis.alpha_sweep:
        spec = EncoderSpec.from_dict({**base.spec.to_dict(), "alpha": float(alpha)})
        train_cfg = TrainConfig(epochs=cfg.analysis.alpha_sweep_epochs,
                                batch_size=base.train.batch_size,
                                learning_rate=base.train.learning_rate,
                                seed=base.train.seed)
        model, _ = train_model(spec, demos, train_cfg)
        score = float(np.mean([alpha_score(model, d) for d in demos]))
        maps = [build_task_map(model, d) for d in demos]
        n_factors = len(extract_time_varying(maps, cfg.analysis.tau))
        rows.append({"alpha": float(alpha), "score": score,
                     "time_varying_factors": n_factors})
    rows.sort(key=lambda r: -r["score"])
    out_dir = cfg.out_dir / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "alpha_sweep.csv"
    csv_path.write_text("alpha,score,time_varying_factors\n" + "".join(
        f"{r['alpha']:.6g},{r['score']:.8g},{r['time_varying_factors']}\n"
        for r in rows))
    json_path = out_dir / "alpha_sweep.json"
    json_path.write_text(json.dumps(rows, indent=1))
    return [str(csv_path), str(json_path)]


def stage_fieldmap(cfg: ExperimentConfig) -> List[str]:
    out_dir = cfg.out_dir / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    metrics = {}
    for name in cfg.analysis.fieldmap_methods:
        model = load_model(cfg, name)
        sets = load_factors(cfg, name)
        factors = sets.get("control") or sets["all"]
        fm = build_field_map(model, factors, cfg.analysis.grid_n, cfg.task)
        csv_path = out_dir / f"fieldmap_{name}.csv"
        csv_path.write_text(field_map_csv(fm))
        outputs.append(str(csv_path))
        grid = fm.grid_view()
        for j, dim in enumerate(factors.indices):
            svg_path = out_dir / f"fieldmap_{name}_f{dim}.svg"
            svg_path.write_text(heatmap(
                grid[:, :, j], title=f"{name} factor {dim} over task space",
                target_cell=cfg.task.target))
            outputs.append(str(svg_path))
        mono = monotonicity_metric(fm)
        eps_c = suggest_collision_eps(fm, cfg.analysis.collision_fraction)
        metrics[name] = {
            "monotonicity": mono.to_dict(),
            "collision_eps": eps_c,
            "collision_fraction": injectivity_metric(fm, eps_c),
            "factor_indices": list(factors.indices),
        }
    metrics_path = out_dir / "fieldmap_metrics.json"
    metrics_path.write_text(json.dumps(metrics, indent=1, sort_keys=True))
    outputs.append(str(metrics_path))
    return outputs


def stage_embodiment(cfg: ExperimentConfig) -> List[str]:
    if not cfg.demos.executor:
        raise StageFailure("embodiment comparison needs demos.executor = true")
    teacher = load_demo_set(cfg, "teacher")
    executor = load_demo_set(cfg, "executor")
    report = {}
    for name in cfg.methods:
        model = load_model(cfg, name)
        rep = embodiment_compare(model, teacher, executor, cfg.analysis.tau)
        report[name] = rep.to_dict()
    out_dir = cfg.out_dir / "analysis"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "embodiment.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return [str(path)]


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


def stage_servo(cfg: ExperimentConfig) -> List[str]:
    out_dir = cfg.out_dir / "control"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name in cfg.control.methods:
        sensor, z_star, eps_goal = _control_setup(cfg, name)
        stats = evaluate_success(
            lambda: UVSController(cfg.uvs, cfg.task), cfg.task, sensor, z_star,
            eps_goal, cfg.control.max_steps, cfg.control.trials,
            seed=cfg.stage_seed("servo"), r_goal=cfg.reinforce.r_goal)
        payload = stats.to_dict()
        payload["eps_goal"] = eps_goal
        stats_path = out_dir / f"servo_{name}_stats.json"
        stats_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        outputs.append(str(stats_path))
        for i, ep in enumerate(stats.episodes):
            trace_path = out_dir / f"servo_{name}_trial{i:02d}.csv"
            trace_path.write_text(episode_trace_csv(ep))
            outputs.append(str(trace_path))
    return outputs


def _policy_to_json(policy: Policy) -> dict:
    return {"k": policy.k, "dof": policy.dof,
            "params": {k: v.data.tolist() for k, v in policy.params.items()}}


def stage_reinforce(cfg: ExperimentConfig) -> List[str]:
    out_dir = cfg.out_dir / "control"
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name in cfg.control.methods:
        sensor, z_star, eps_goal = _control_setup(cfg, name)
        policy, rewards = train_policy(cfg.task, sensor, z_star, cfg.reinforce,
                                       eps_goal)
        curve_path = out_dir / f"reinforce_{name}_rewards.csv"
        curve_path.write_text("episode,reward\n" + "".join(
            f"{i},{r:.8g}\n" for i, r in enumerate(rewards)))
        svg_path = out_dir / f"reinforce_{name}_rewards.svg"
        svg_path.write_text(line_chart(
            [("episode reward", list(range(len(rewards))), rewards)],
            title=f"guided policy-gradient training — {name}",
            x_label="episode", y_label="episode reward"))
        policy_path = out_dir / f"reinforce_{name}_policy.json"
        policy_path.write_text(json.dumps(_policy_to_json(policy), indent=1))
        stats = evaluate_success(
            lambda: GuidedReinforceController(policy, cfg.task, cfg.reinforce.k_gain),
            cfg.task, sensor, z_star, eps_goal, cfg.control.max_steps,
            cfg.control.trials, seed=cfg.stage_seed("reinforce-eval"),
            r_goal=cfg.reinforce.r_goal)
        payload = stats.to_dict()
        payload["eps_goal"] = eps_goal
        stats_path = out_dir / f"reinforce_{name}_stats.json"
        stats_path.write_text(json.dumps(payload, indent=1, sort_keys=True))
        outputs += [str(curve_path), str(svg_path), str(policy_path), str(stats_path)]
    return outputs


def stage_evaluate(cfg: ExperimentConfig) -> List[str]:
    out_dir = cfg.out_dir / "control"
    table: Dict[str, Dict[str, float]] = {}
    for name in cfg.control.methods:
        row = {}
        for controller in ("servo", "reinforce"):
            stats_path = out_dir / f"{controller}_{name}_stats.json"
            if not stats_path.exists():
                raise StageFailure(f"missing {stats_path}; run {controller} first")
            row["uvs" if controller == "servo" else "reinforce"] = \
                json.loads(stats_path.read_text())["success_rate"]
        table[name] = row
    if cfg.control.include_oracle:
        sensor = oracle_sensor(cfg.task)
        z_star = target_factors(sensor, cfg.task)
        eps_goal = cfg.control.goal_workspace_tol
        uvs_stats = evaluate_success(
            lambda: UVSController(cfg.uvs, cfg.task), cfg.task, sensor, z_star,
            eps_goal, cfg.control.max_steps, cfg.control.trials,
            seed=cfg.stage_seed("oracle-eval"))
        fresh = Policy.create(cfg.task.dof, cfg.task.dof,
                              hidden=cfg.reinforce.policy_hidden,
                              init_log_std=cfg.reinforce.init_log_std,
                              seed=cfg.reinforce.seed)
        gr_stats = evaluate_success(
            lambda: GuidedReinforceController(fresh, cfg.task, cfg.reinforce.k_gain),
            cfg.task, sensor, z_star, eps_goal, cfg.control.max_steps,
            cfg.control.trials, seed=cfg.stage_seed("oracle-eval"))
        table["oracle"] = {"uvs": uvs_stats.success_rate,
                           "reinforce": gr_stats.success_rate}
    path = out_dir / "evaluate.json"
    path.write_text(json.dumps({"success_rate": table}, indent=1, sort_keys=True))
    return [str(path)]


# -------------------------------------------------------------------- report

def stage_report(out_dir: Path, manifest: RunManifest) -> List[str]:
    out_dir = Path(out_dir)
    lines = ["# latentservo run report", ""]
    lines.append(f"- config digest: `{manifest.config_digest}`")
    lines.append(f"- tool version: {manifest.tool_version}")
    lines.append("")
    lines.append("## Stages")
    lines.append("")
    lines.append("| stage | status | outputs |")
    lines.append("|---|---|---|")
    partial = sorted(set(manifest.stages) - set(STAGE_TABLE) - {"report"})
    for stage in list(STAGE_TABLE) + partial:
        entry = manifest.stages.get(stage)
        if entry is None:
            lines.append(f"| {stage} | SKIPPED | |")
            continue
        status = entry.get("status", "?").upper()
        shown = "<br>".join(Path(o).name for o in entry.get("outputs", []))
        lines.append(f"| {stage} | {status} | {shown} |")
    lines.append("")

    factors_rows = []
    for path in sorted((out_dir / "analysis").glob("factors_*.json")):
        name = path.stem.replace("factors_", "")
        data = json.loads(path.read_text())
        fs = data["all"]
        factors_rows.append((name, len(fs["indices"]), fs["indices"]))
    if factors_rows:
        lines.append("## Time-varying factors")
        lines.append("")
        lines.append("| method | count | indices |")
        lines.append("|---|---|---|")
        for name, count, idx in factors_rows:
            lines.append(f"| {name} | {count} | {idx} |")
        lines.append("")

    metrics_path = out_dir / "analysis" / "fieldmap_metrics.json"
    if metrics_path.exists():
        metrics = json.loads(metrics_path.read_text())
        lines.append("## Field-map geometry")
        lines.append("")
        lines.append("| method | mono x | mono y | collision fraction |")
        lines.append("|---|---|---|---|")
        for name, m in sorted(metrics.items()):
            lines.append(
                f"| {name} | {m['monotonicity']['x']:.3f} "
                f"| {m['monotonicity']['y']:.3f} "
                f"| {m['collision_fraction']:.4f} |")
        lines.append("")

    sweep_path = out_dir / "analysis" / "alpha_sweep.json"
    if sweep_path.exists():
        rows = json.loads(sweep_path.read_text())
        lines.append("## Alpha sweep (sorted by variance-smoothness score)")
        lines.append("")
        lines.append("| alpha | score | factors |")
        lines.append("|---|---|---|")
        for r in rows:
            lines.append(f"| {r['alpha']} | {r['score']:.4f} "
                         f"| {r['time_varying_factors']} |")
        lines.append("")

    emb_path = out_dir / "analysis" / "embodiment.json"
    if emb_path.exists():
        report = json.loads(emb_path.read_text())
        lines.append("## Embodiment transfer (teacher-trained, executor demos)")
        lines.append("")
        lines.append("| method | jaccard | mean corr | final latent dist | verdict |")
        lines.append("|---|---|---|---|---|")
        for name, r in sorted(report.items()):
            lines.append(
                f"| {name} | {r['jaccard']:.2f} | {r['mean_correlation']:.3f} "
                f"| {r['final_latent_distance']:.4f} | {r['verdict']} |")
        lines.append("")

    eval_path = out_dir / "control" / "evaluate.json"
    if eval_path.exists():
        table = json.loads(eval_path.read_text())["success_rate"]
        lines.append("## Success rates")
        lines.append("")
        lines.append("| method | UVS | guided policy gradient |")
        lines.append("|---|---|---|")
        for name, row in sorted(table.items()):
            lines.append(f"| {name} | {row['uvs']:.0%} | {row['reinforce']:.0%} |")
        lines.append("")

    path = out_dir / "report.md"
    path.write_text("\n".join(lines) + "\n")
    return [str(path)]


# ---------------------------------------------------------------- dispatcher

# Every cached stage in pipeline order: stage -> (runner, dependencies).
STAGE_TABLE: Dict[str, Tuple[Callable[..., List[str]], Tuple[str, ...]]] = {
    "demo-gen": (stage_demo_gen, ()),
    "train": (stage_train, ("demo-gen",)),
    "taskmap": (stage_taskmap, ("train",)),
    "factors": (stage_factors, ("train",)),
    "alpha-sweep": (stage_alpha_sweep, ("demo-gen",)),
    "fieldmap": (stage_fieldmap, ("factors",)),
    "embodiment": (stage_embodiment, ("train",)),
    "servo": (stage_servo, ("factors",)),
    "reinforce": (stage_reinforce, ("factors",)),
    "evaluate": (stage_evaluate, ("servo", "reinforce")),
}


def ensure_stage(cfg: ExperimentConfig, manifest: RunManifest, stage: str,
                 force: bool = False, log=print, **kwargs) -> List[str]:
    runner, deps = STAGE_TABLE[stage]
    for dep in deps:
        ensure_stage(cfg, manifest, dep, force=False, log=log)
    # A partial run (train --method / --latent-dim) is cached under its own
    # key, so it never stands in for the whole stage.
    key = stage + "".join(f"[{k}={v}]" for k, v in sorted(kwargs.items()) if v)
    return run_stage(manifest, key, force, lambda: runner(cfg, **kwargs), log=log)
