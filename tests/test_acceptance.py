"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line once its assertions hold, so a
verbose run reads as a checklist. Training fixtures are module-scoped and
seeded; total runtime stays well under the 30-minute budget.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from latentservo import autodiff as ad
from latentservo.analysis import (
    build_field_map,
    build_task_map,
    embodiment_compare,
    extract_time_varying,
    injectivity_metric,
    monotonicity_metric,
    project,
    select_control_factors,
    shuffle_demo_frames,
    suggest_collision_eps,
)
from latentservo.cli.main import EXIT_OK, main
from latentservo.control import (
    GuidedReinforceController,
    JacobianEstimate,
    Policy,
    ReinforceConfig,
    UVSConfig,
    UVSController,
    broyden_update,
    calibrate_goal_tolerance,
    control_loop,
    evaluate_success,
    model_sensor,
    oracle_sensor,
    target_factors,
    train_policy,
)
from latentservo.plain import plain
from latentservo.representations import (
    EncoderSpec,
    Method,
    TrainConfig,
    encode,
    init_params,
    loss,
    train,
)
from latentservo.toyenv import (
    Pattern,
    SpriteKind,
    TaskSpec,
    WorldState,
    generate_demo,
    random_start,
    render,
)

TINY_CONFIG = Path(__file__).parent / "data" / "tiny.ini"

TASK = TaskSpec()
DEMO_STARTS = [(0.1, 0.1), (0.85, 0.15), (0.2, 0.8)]


def ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


@pytest.fixture(scope="module")
def teacher_demos():
    return [generate_demo(TASK, Pattern.STRAIGHT, s, 16) for s in DEMO_STARTS]


@pytest.fixture(scope="module")
def executor_demos():
    spec = TASK.with_sprite(SpriteKind.EXECUTOR)
    return [generate_demo(spec, Pattern.STRAIGHT, s, 16) for s in DEMO_STARTS]


@pytest.fixture(scope="module")
def sae_model(teacher_demos):
    spec = EncoderSpec(method=Method.SAE, sae_channels=8, temperature=4.0, seed=1)
    model, _ = train(spec, teacher_demos,
                     TrainConfig(epochs=600, batch_size=16, learning_rate=2e-3, seed=1))
    return model


@pytest.fixture(scope="module")
def bvae_model(teacher_demos):
    spec = EncoderSpec(method=Method.BVAE, latent_dim=50, alpha=0.12, seed=1)
    model, _ = train(spec, teacher_demos,
                     TrainConfig(epochs=3000, batch_size=16, learning_rate=2e-3, seed=1))
    return model


@pytest.fixture(scope="module")
def sae_control(sae_model, teacher_demos):
    maps = [build_task_map(sae_model, d) for d in teacher_demos]
    factors = select_control_factors(extract_time_varying(maps, 0.2), 2, Method.SAE)
    sensor = model_sensor(sae_model, factors, TASK)
    z_star = target_factors(sensor, TASK)
    eps_goal = calibrate_goal_tolerance(sensor, TASK, 0.02)
    return sensor, z_star, eps_goal, factors


@pytest.fixture(scope="module")
def bvae_control(bvae_model, teacher_demos):
    maps = [build_task_map(bvae_model, d) for d in teacher_demos]
    factors = select_control_factors(extract_time_varying(maps, 0.2), 2, Method.BVAE)
    sensor = model_sensor(bvae_model, factors, TASK)
    z_star = target_factors(sensor, TASK)
    eps_goal = calibrate_goal_tolerance(sensor, TASK, 0.02)
    return sensor, z_star, eps_goal, factors


# --------------------------------------------------------------- criterion 1

def _kink_clearance_sae(spec, params, batch):
    x = ad.Tensor(batch[:, None])
    h0 = ad.conv2d(x, params["conv0_w"], params["conv0_b"], stride=2)
    params["conv0_b"].data -= h0.data.min(axis=(0, 2, 3)) - 0.05
    h0 = ad.conv2d(x, params["conv0_w"], params["conv0_b"], stride=2)
    h1 = ad.conv2d(ad.relu(h0), params["conv1_w"], params["conv1_b"], stride=2)
    params["conv1_b"].data -= h1.data.min(axis=(0, 2, 3)) - 0.05
    h1 = ad.conv2d(ad.relu(h0), params["conv1_w"], params["conv1_b"], stride=2)
    coords = ad.spatial_softmax(ad.relu(h1), temperature=spec.temperature)
    pre = ad.linear(coords, params["dec0_w"], params["dec0_b"])
    params["dec0_b"].data -= pre.data.min(axis=0) - 0.05


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(0)
    worst = {}

    # every layer type on randomized small tensors (<= 64 elements)
    a = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
    b = ad.parameter(rng.standard_normal((3, 4)).astype(np.float32))
    worst["elementwise"] = ad.finite_diff_check(
        lambda: ad.tsum(ad.mul(ad.add(a, b), ad.sub(a, b))), {"a": a, "b": b})
    m1 = ad.parameter(rng.standard_normal((4, 5)).astype(np.float32))
    m2 = ad.parameter(rng.standard_normal((5, 3)).astype(np.float32))
    bias = ad.parameter(rng.standard_normal(3).astype(np.float32))
    worst["linear"] = ad.finite_diff_check(
        lambda: ad.tmean(ad.mul(ad.linear(m1, m2, bias), ad.linear(m1, m2, bias))),
        {"m1": m1, "m2": m2, "bias": bias})
    act = ad.parameter((rng.uniform(0.2, 1.5, 14)).astype(np.float32))
    worst["activations"] = ad.finite_diff_check(
        lambda: ad.tsum(ad.mul(ad.tanh(act), ad.mul(ad.sigmoid(act),
                                                    ad.exp(ad.scale(act, 0.2))))),
        {"act": act})
    logx = ad.parameter(rng.uniform(0.5, 2.0, 8).astype(np.float32))
    worst["log"] = ad.finite_diff_check(lambda: ad.tsum(ad.log(logx)), {"x": logx})
    rl = ad.parameter((rng.uniform(0.2, 1.0, 10)).astype(np.float32))
    worst["relu"] = ad.finite_diff_check(lambda: ad.tsum(ad.relu(rl)), {"x": rl})
    cx = ad.parameter(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
    cw = ad.parameter(rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 0.4)
    cb = ad.parameter(rng.standard_normal(2).astype(np.float32) * 0.1)
    worst["conv2d"] = ad.finite_diff_check(
        lambda: ad.tmean(ad.mul(ad.conv2d(cx, cw, cb, stride=2),
                                ad.conv2d(cx, cw, cb, stride=2))),
        {"x": cx, "w": cw, "b": cb})
    sx = ad.parameter(rng.standard_normal((2, 3, 4)).astype(np.float32))
    worst["spatial_softmax"] = ad.finite_diff_check(
        lambda: ad.tsum(ad.mul(ad.spatial_softmax(sx, 0.8),
                               ad.spatial_softmax(sx, 0.8))), {"x": sx})
    mu = ad.parameter(rng.standard_normal(6).astype(np.float32))
    sg = ad.parameter(rng.uniform(0.5, 1.5, 6).astype(np.float32))
    worst["gaussian_kl"] = ad.finite_diff_check(
        lambda: ad.gaussian_kl(mu, sg), {"mu": mu, "sigma": sg})
    me1 = ad.parameter(rng.standard_normal((3, 5)).astype(np.float32))
    me2 = ad.parameter(rng.standard_normal((3, 5)).astype(np.float32))
    worst["mse"] = ad.finite_diff_check(lambda: ad.mse(me1, me2), {"a": me1, "b": me2})
    rs = ad.parameter(rng.standard_normal((2, 6)).astype(np.float32))
    worst["reshape"] = ad.finite_diff_check(
        lambda: ad.tsum(ad.mul(ad.reshape(rs, (3, 4)), ad.reshape(rs, (3, 4)))),
        {"x": rs})
    for layer, err in worst.items():
        assert err < 1e-4, f"layer {layer}: {err}"

    # full method losses on reduced specs
    def subset(params, names):
        return {k: params[k] for k in names}

    ae_spec = EncoderSpec(method=Method.AE, image_size=16, latent_dim=8,
                          hidden=(24, 12), seed=3)
    ae_params = init_params(ae_spec)
    batch = np.random.default_rng(11).uniform(0, 1, (2, 16, 16)).astype(np.float32)
    err_ae = ad.finite_diff_check(
        lambda: loss(ae_spec, ae_params, batch),
        subset(ae_params, ["lat_w", "lat_b", "dec0_b", "out_b"]))
    assert err_ae < 1e-4, f"AE loss: {err_ae}"

    vae_spec = EncoderSpec(method=Method.VAE, image_size=16, latent_dim=8,
                           hidden=(24, 12), seed=3)
    vae_params = init_params(vae_spec)
    noise = np.random.default_rng(12).standard_normal((2, 8)).astype(np.float32)
    err_vae = ad.finite_diff_check(
        lambda: loss(vae_spec, vae_params, batch, noise=noise),
        subset(vae_params, ["mu_w", "mu_b", "logvar_b", "dec0_b"]))
    assert err_vae < 1e-3, f"VAE loss: {err_vae}"

    bvae_spec = EncoderSpec(method=Method.BVAE, image_size=16, latent_dim=8,
                            hidden=(24, 12), alpha=0.5, seed=3)
    bvae_params = init_params(bvae_spec)
    err_bvae = ad.finite_diff_check(
        lambda: loss(bvae_spec, bvae_params, batch, noise=noise),
        subset(bvae_params, ["mu_b", "logvar_b", "out_b"]))
    assert err_bvae < 1e-3, f"BVAE loss: {err_bvae}"

    sae_spec = EncoderSpec(method=Method.SAE, image_size=16, sae_channels=3,
                           sae_conv1_channels=4, sae_decoder_hidden=10, seed=3)
    sae_params = init_params(sae_spec)
    one = batch[:1]
    _kink_clearance_sae(sae_spec, sae_params, one)
    err_sae = ad.finite_diff_check(
        lambda: loss(sae_spec, sae_params, one),
        subset(sae_params, ["conv0_w", "conv0_b", "conv1_b", "dec0_b"]))
    assert err_sae < 1e-4, f"SAE loss: {err_sae}"

    ok("1 gradient suite",
       f"(layers max {max(worst.values()):.2e}; ae {err_ae:.2e}, "
       f"vae {err_vae:.2e}, bvae {err_bvae:.2e}, sae {err_sae:.2e})")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_closed_form_oracles():
    t = lambda v: ad.Tensor(np.asarray(v, dtype=np.float32))
    assert abs(ad.gaussian_kl(t([0.0, 0.0]), t([1.0, 1.0])).item()) < 1e-6
    assert abs(ad.gaussian_kl(t([1.0]), t([1.0])).item() - 0.5) < 1e-6
    expected = 0.5 * (4.0 - math.log(4.0) - 1.0)
    assert abs(ad.gaussian_kl(t([0.0]), t([2.0])).item() - expected) < 1e-6

    uniform = ad.spatial_softmax(t(np.zeros((3, 5, 7))))
    assert np.abs(uniform.data).max() < 1e-6
    spike = np.zeros((1, 4, 4), dtype=np.float32)
    spike[0, 0, 0] = 60.0
    corner = ad.spatial_softmax(t(spike), temperature=1e-2)
    assert np.abs(corner.data - [-1.0, -1.0]).max() < 1e-6
    two = np.full((1, 5, 5), -1e4, dtype=np.float32)
    two[0, 2, 0] = 10.0
    two[0, 2, 4] = 10.0
    mid = ad.spatial_softmax(t(two))
    assert np.abs(mid.data).max() < 1e-6
    ok("2 closed-form oracles")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_eq2_consistency():
    vae_spec = EncoderSpec(method=Method.VAE, latent_dim=50, seed=4)
    alpha = vae_spec.latent / vae_spec.input_dim
    bvae_spec = EncoderSpec(method=Method.BVAE, latent_dim=50, alpha=alpha, seed=4)
    assert abs(bvae_spec.beta() - 1.0) < 1e-12

    params_v = init_params(vae_spec)
    params_b = {k: ad.parameter(v.data.copy()) for k, v in params_v.items()}
    rng = np.random.default_rng(5)
    batch = rng.uniform(0, 1, (4, 32, 32)).astype(np.float32)
    noise = rng.standard_normal((4, 50)).astype(np.float32)

    with ad.Tape():
        lv = loss(vae_spec, params_v, batch, noise=noise)
        gv = ad.backward(lv, params_v)
    with ad.Tape():
        lb = loss(bvae_spec, params_b, batch, noise=noise)
        gb = ad.backward(lb, params_b)
    rel_loss = abs(lv.item() - lb.item()) / max(1e-12, abs(lv.item()))
    assert rel_loss < 1e-6
    worst = 0.0
    for name in gv:
        denom = max(1e-8, float(np.abs(gv[name]).max()))
        worst = max(worst, float(np.abs(gv[name] - gb[name]).max()) / denom)
    assert worst < 1e-6
    ok("3 Eq-2 consistency", f"(loss rel {rel_loss:.1e}, grad rel {worst:.1e})")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_factor_extraction_oracle():
    from latentservo.analysis.taskmap import TaskMap
    T, dims = 40, 12
    ramp = np.linspace(0.0, 1.0, T)
    noise_sigma = ramp.std() / 100.0  # spread ratio 100:1
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = rng.normal(0.0, noise_sigma, size=(T, dims))
        vals[:, 0] = ramp
        vals[:, 3] = ramp
        tm = TaskMap(values=vals.astype(np.float32), sigmas=None)
        fs = extract_time_varying([tm], tau=0.2)
        if fs.indices != (0, 3):
            failures += 1
    assert failures == 0
    ok("4 factor-extraction oracle", "(100 seeded instances, 0 failures)")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_fig2_factor_counts(bvae_model, teacher_demos):
    maps2 = [build_task_map(bvae_model, d) for d in teacher_demos]
    count2 = len(extract_time_varying(maps2, 0.2))
    assert 2 <= count2 <= 6, f"2-dof factor count {count2} outside [2, 6]"

    task1 = TaskSpec(dof=1)
    demos1 = [generate_demo(task1, Pattern.STRAIGHT, (x, task1.target[1]), 16)
              for x in (0.1, 0.9, 0.3)]
    spec1 = EncoderSpec(method=Method.BVAE, latent_dim=50, alpha=0.12, seed=1)
    model1, _ = train(spec1, demos1,
                      TrainConfig(epochs=3000, batch_size=16, learning_rate=2e-3, seed=1))
    maps1 = [build_task_map(model1, d) for d in demos1]
    count1 = len(extract_time_varying(maps1, 0.2))
    assert count2 >= count1, f"2-dof count {count2} < 1-dof count {count1}"
    ok("5 task-map factor counts", f"(2-dof {count2}, 1-dof {count1})")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_fig5_fieldmap(sae_control, bvae_control):
    sae_sensor, _, _, sae_factors = sae_control
    bvae_sensor, _, _, bvae_factors = bvae_control
    fm_sae = build_field_map(sae_sensor, sae_factors, 64)
    fm_bvae = build_field_map(bvae_sensor, bvae_factors, 64)

    mono = monotonicity_metric(fm_sae)
    assert mono.x > 0.9 and mono.y > 0.9, f"SAE monotonicity {mono.x}, {mono.y}"

    frac_sae = injectivity_metric(fm_sae, suggest_collision_eps(fm_sae, 0.04))
    frac_bvae = injectivity_metric(fm_bvae, suggest_collision_eps(fm_bvae, 0.04))
    assert frac_sae < 0.05, f"SAE collision fraction {frac_sae}"
    assert frac_bvae >= frac_sae, (
        f"expected BVAE collisions ({frac_bvae:.4f}) >= SAE ({frac_sae:.4f})")
    mono_b = monotonicity_metric(fm_bvae)
    ok("6 field-map geometry",
       f"(SAE rho=({mono.x:.3f},{mono.y:.3f}) coll={frac_sae:.4f}; "
       f"BVAE rho=({mono_b.x:.3f},{mono_b.y:.3f}) coll={frac_bvae:.4f} — reported)")


# --------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def trained_policies(sae_control, bvae_control):
    out = {}
    for name, (sensor, z_star, eps_goal, _) in (("sae", sae_control),
                                                ("bvae", bvae_control)):
        cfg = ReinforceConfig(episodes=240, horizon=80, learning_rate=1e-4, seed=0)
        policy, rewards = train_policy(TASK, sensor, z_star, cfg, eps_goal)
        out[name] = (policy, rewards)
    return out


def test_criterion_7_table2_success(sae_control, bvae_control, trained_policies):
    rates = {}
    for name, (sensor, z_star, eps_goal, _) in (("sae", sae_control),
                                                ("bvae", bvae_control)):
        uvs = evaluate_success(lambda: UVSController(UVSConfig(), TASK), TASK,
                               sensor, z_star, eps_goal, 80, 10, seed=101)
        policy, _ = trained_policies[name]
        gr = evaluate_success(
            lambda: GuidedReinforceController(policy, TASK, k_gain=0.5), TASK,
            sensor, z_star, eps_goal, 80, 10, seed=101)
        rates[name] = {"uvs": uvs.success_rate, "reinforce": gr.success_rate}

    assert rates["sae"]["uvs"] >= 0.8, f"SAE+UVS {rates['sae']['uvs']}"
    assert rates["sae"]["reinforce"] >= 0.8, f"SAE+GR {rates['sae']['reinforce']}"
    assert rates["sae"]["uvs"] >= rates["bvae"]["uvs"]
    assert rates["sae"]["reinforce"] >= rates["bvae"]["reinforce"]

    sensor_o = oracle_sensor(TASK)
    z_star_o = target_factors(sensor_o, TASK)
    uvs_o = evaluate_success(lambda: UVSController(UVSConfig(), TASK), TASK,
                             sensor_o, z_star_o, 0.02, 80, 10, seed=101)
    fresh = Policy.create(2, 2, seed=0)
    gr_o = evaluate_success(
        lambda: GuidedReinforceController(fresh, TASK, k_gain=0.5), TASK,
        sensor_o, z_star_o, 0.02, 80, 10, seed=101)
    assert uvs_o.success_rate == 1.0, "oracle UVS must be exactly 100%"
    assert gr_o.success_rate == 1.0, "oracle guidance must be exactly 100%"
    ok("7 success rates",
       f"(SAE {rates['sae']}, BVAE {rates['bvae']} — paper reports 100/100 vs 30/40)")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_fig6_reward_trend(sae_control):
    sensor, z_star, eps_goal, _ = sae_control
    margins = []
    for seed in (0, 1, 2):
        cfg = ReinforceConfig(episodes=240, horizon=80, learning_rate=1e-4, seed=seed)
        _, rewards = train_policy(TASK, sensor, z_star, cfg, eps_goal)
        decile = max(1, len(rewards) // 10)
        first = float(np.mean(rewards[:decile]))
        last = float(np.mean(rewards[-decile:]))
        assert last > first, f"seed {seed}: no improvement ({first:.2f} -> {last:.2f})"
        margins.append(last - first)
    ok("8 reward-curve trend", f"(margins {[f'{m:.1f}' for m in margins]})")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_servo_algebra():
    rng = np.random.default_rng(77)
    jac = JacobianEstimate(matrix=rng.standard_normal((3, 2)), damping=1e-3)
    worst = 0.0
    for _ in range(1000):
        dq = rng.standard_normal(2) * 0.05
        dz = rng.standard_normal(3) * 0.05
        jac = broyden_update(jac, dq, dz)
        worst = max(worst, float(np.linalg.norm(jac.matrix @ dq - dz)))
    assert worst < 1e-9, f"secant residual {worst}"

    sensor = oracle_sensor(TASK)
    z_star = target_factors(sensor, TASK)
    cfg = UVSConfig()
    rng = np.random.default_rng(9)
    worst_margin = None
    for _ in range(20):
        start = random_start(TASK, rng)
        res = control_loop(UVSController(cfg, TASK), WorldState(position=start),
                           TASK, sensor, z_star, eps_goal=0.02, max_steps=300)
        bound = math.ceil(np.linalg.norm(start - np.asarray(TASK.target))
                          / (cfg.gain * TASK.a_max)) + 5
        assert res.success and res.steps <= bound, \
            f"start {start}: steps {res.steps} > bound {bound}"
        margin = bound - res.steps
        worst_margin = margin if worst_margin is None else min(worst_margin, margin)
    ok("9 servo algebra", f"(secant max {worst:.1e}, tightest step margin {worst_margin})")


# ------------------------------------------------- trained-model spot checks

def test_trained_sae_tracks_center(sae_model, sae_control):
    # effector at the workspace center projects to the image center, so the
    # tracking pair should read near (0, 0)
    _, _, _, factors = sae_control
    img = render(np.array([[0.5, 0.5]]), TASK)[0]
    pair = project(encode(sae_model, img).values, factors)
    assert float(np.linalg.norm(pair)) < 0.15, f"pair at center: {pair}"


def test_trained_sae_jacobian_full_rank(sae_control):
    from latentservo.control import uvs_init_jacobian
    sensor, _, _, _ = sae_control
    jac = uvs_init_jacobian(WorldState(position=np.array([0.4, 0.45])), TASK,
                            sensor, eps_explore=0.05)
    assert not jac.ill_conditioned
    assert np.isfinite(jac.condition_number)
    print(f"trained SAE exploration Jacobian condition number: "
          f"{jac.condition_number:.2f}")


@pytest.fixture(scope="module")
def ae_model(teacher_demos):
    spec = EncoderSpec(method=Method.AE, latent_dim=50, seed=1)
    model, _ = train(spec, teacher_demos,
                     TrainConfig(epochs=200, batch_size=16,
                                 learning_rate=2e-3, seed=1))
    return model


def test_trained_ae_reconstructs(ae_model, teacher_demos):
    from latentservo.representations.models import (_decoder_forward,
                                                    _encoder_forward)
    frames = np.concatenate([d.frames for d in teacher_demos])
    x = ad.Tensor(frames.reshape(len(frames), -1))
    z, _ = _encoder_forward(ae_model.params, ae_model.spec, x)
    recon = _decoder_forward(ae_model.params, ae_model.spec, z)
    per_pixel = float(((recon.data - x.data) ** 2).mean())
    assert per_pixel < 0.01, f"AE per-pixel MSE {per_pixel}"


# -------------------------------------------------------------- criterion 10

def test_criterion_10_embodiment_harness(sae_model, bvae_model, ae_model,
                                         teacher_demos, executor_demos, tmp_path):
    identity = embodiment_compare(sae_model, teacher_demos, teacher_demos)
    assert identity.jaccard == 1.0
    assert identity.mean_correlation == pytest.approx(1.0)
    assert identity.final_latent_distance == 0.0

    rng = np.random.default_rng(17)
    shuffled = [shuffle_demo_frames(d, rng) for d in teacher_demos]
    negative = embodiment_compare(sae_model, teacher_demos, shuffled)
    assert abs(negative.mean_correlation) < 0.3, \
        f"shuffled-frames correlation {negative.mean_correlation}"

    # transfer values for all four methods, emitted as an artifact
    vae_spec = EncoderSpec(method=Method.VAE, latent_dim=50, seed=1)
    vae_model, _ = train(vae_spec, teacher_demos,
                         TrainConfig(epochs=800, batch_size=16,
                                     learning_rate=2e-3, seed=1))
    models = {"ae": ae_model, "vae": vae_model, "bvae": bvae_model, "sae": sae_model}
    report = {}
    for name, model in models.items():
        rep = embodiment_compare(model, teacher_demos, executor_demos)
        report[name] = plain(rep)
        assert 0.0 <= rep.jaccard <= 1.0
    out = tmp_path / "embodiment_transfer.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    summary = {n: (round(r["jaccard"], 2), round(r["mean_correlation"], 2))
               for n, r in report.items()}
    ok("10 embodiment harness", f"(identity exact, shuffled "
       f"{negative.mean_correlation:.3f}, transfer jaccard/corr {summary})")


# -------------------------------------------------------------- criterion 11

def _artifact_bytes(run_dir: Path) -> dict:
    out = {}
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        if path.suffix in (".csv", ".json", ".svg", ".pgm", ".lsrv", ".md"):
            out[str(path.relative_to(run_dir))] = path.read_bytes()
    return out


def test_criterion_11_pipeline_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for stage in ("evaluate", "taskmap", "alpha-sweep", "fieldmap",
                      "embodiment", "report"):
            rc = main([stage, "--config", str(TINY_CONFIG), "--out", str(out)])
            assert rc == EXIT_OK, f"stage {stage} failed in run {tag}"
        runs.append(_artifact_bytes(out))
    assert runs[0].keys() == runs[1].keys()
    diff = [name for name in runs[0] if runs[0][name] != runs[1][name]]
    assert not diff, f"artifacts differ between runs: {diff}"
    ok("11 pipeline determinism", f"({len(runs[0])} artifacts byte-identical)")
