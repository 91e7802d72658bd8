"""Servo algebra, guidance, Gaussian policy, and the closed loop on oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentservo import autodiff as ad
from latentservo.analysis import FactorSet, injectivity_metric, project
from latentservo.cli.config import AnalysisConfig, ControlConfig, DemoConfig
from latentservo.control import (
    GuidedReinforceController,
    JacobianEstimate,
    Policy,
    ReinforceConfig,
    TrainEpisode,
    UVSConfig,
    UVSController,
    broyden_update,
    broyden_updates,
    calibrate_goal_tolerance,
    control_loop,
    discounted_returns,
    evaluate_success,
    guidance_action,
    model_sensor,
    oracle_sensor,
    reinforce_update,
    reward,
    rollout,
    run_episodes,
    sample_action,
    target_factors,
    uvs_init_jacobian,
    uvs_steps,
)
from latentservo.control.uvs import MIN_UPDATE_NORM
from latentservo.representations import (
    ConfigError,
    EncoderSpec,
    LatentVector,
    Method,
    ModelWeights,
    TrainConfig,
    compute_beta,
    encode_batch,
    init_params,
)
from latentservo.toyenv import Pattern, TaskSpec, WorldState, random_start, render, step


@pytest.fixture
def spec():
    return TaskSpec()


SENSOR_TASK = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)

# SAE factor sets over 2 channels: dims 2c and 2c + 1 read channel c
SAE_FACTORS = {"sae": (0, 3), "sae-ch0": (0, 1), "sae-ch1": (2, 3),
               "sae-all": (0, 1, 2, 3), "sae-none": ()}


def tiny_model(method=Method.SAE):
    """A 16-pixel model of any method with a 4-dim latent."""
    spec = EncoderSpec(method=method, image_size=16, latent_dim=4, hidden=(12, 8),
                       alpha=2.0 if method is Method.BVAE else None, sae_channels=2,
                       sae_conv1_channels=3, sae_decoder_hidden=8, seed=4)
    return ModelWeights(spec=spec, params=init_params(spec))


class TestSensors:
    def _model_sensor(self, indices=(0, 3)):
        return model_sensor(tiny_model(), FactorSet(indices=indices, tau=0.2,
                                                    spreads=np.ones(4)), SENSOR_TASK)

    def test_oracle_reads_positions_row_wise(self):
        positions = np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.7]])
        np.testing.assert_array_equal(oracle_sensor(TaskSpec())(positions), positions)
        np.testing.assert_array_equal(oracle_sensor(TaskSpec(dof=1))(positions),
                                      positions[:, :1])

    def test_model_sensor_gives_float64_factor_rows(self):
        z = self._model_sensor()(np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.7]]))
        assert z.shape == (3, 2) and z.dtype == np.float64

    @pytest.mark.parametrize("indices", list(SAE_FACTORS.values()))
    @pytest.mark.parametrize("method", list(Method))
    def test_model_sensor_reads_the_projected_full_latent(self, method, indices):
        """The sensor encodes only its factors' dims, with the bits of
        projecting the full latent onto them."""
        model = tiny_model(method)
        factors = FactorSet(indices=indices, tau=0.2, spreads=np.ones(4))
        sensor = model_sensor(model, factors, SENSOR_TASK)
        rng = np.random.default_rng(len(indices))
        for n in (1, 2, 3, 10, 33, 144):
            positions = rng.uniform(0.0, 1.0, (n, 2))
            latents = encode_batch(model, render(positions, SENSOR_TASK))[0]
            want = project(latents, factors).astype(np.float64)
            got = sensor(positions)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("method", list(Method))
    def test_model_sensor_reads_weights_edited_in_place(self, method):
        """The sensor's plan holds views of the weights, never copies: after
        an in-place edit it reads what a freshly built sensor reads."""
        model = tiny_model(method)
        factors = FactorSet(indices=(0, 3), tau=0.2, spreads=np.ones(4))
        sensor = model_sensor(model, factors, SENSOR_TASK)
        positions = np.random.default_rng(5).uniform(0.0, 1.0, (10, 2))
        before = sensor(positions)
        rng = np.random.default_rng(6)
        for p in model.params.values():
            p.data += (0.05 * rng.standard_normal(p.shape)).astype(np.float32)
        after = sensor(positions)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == model_sensor(model, factors, SENSOR_TASK)(positions).tobytes()

    def test_model_sensor_rejects_another_latent_size(self):
        with pytest.raises(ValueError, match="6 dims"):
            model_sensor(tiny_model(), FactorSet(indices=(0, 1), tau=0.2,
                                                 spreads=np.ones(6)), SENSOR_TASK)

    @pytest.mark.parametrize("n", [2, 3, 10, 16, 33])
    @pytest.mark.parametrize("kind", ["oracle", *SAE_FACTORS])
    def test_a_row_is_sensed_as_if_alone(self, spec, kind, n):
        """Row i of a stacked call equals the one-row call on its position,
        byte for byte, whatever the stack's size or order. The dense encoders
        (AE, VAE, BVAE) do not meet this yet: a stacked sgemm row differs."""
        sensor = oracle_sensor(spec) if kind == "oracle" else self._model_sensor(SAE_FACTORS[kind])
        rng = np.random.default_rng(n)
        positions = rng.uniform(0.0, 1.0, (n, 2))
        alone = np.stack([sensor(positions[i:i + 1])[0] for i in range(n)])
        perm = rng.permutation(n)
        assert sensor(positions).tobytes() == alone.tobytes()
        assert sensor(positions[perm]).tobytes() == alone[perm].tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4, 3)])
    def test_sensors_reject_anything_but_a_position_stack(self, spec, shape):
        for sensor in (oracle_sensor(spec), self._model_sensor()):
            with pytest.raises(ValueError, match=r"\(N, 2\)"):
                sensor(np.full(shape, 0.5))


NAN = float("nan")

# Every positivity check, scalar or array, with the error type it raises for 0
POSITIVE = {
    "UVSConfig.eps_explore": (lambda x: UVSConfig(eps_explore=x), ValueError),
    "UVSConfig.gain": (lambda x: UVSConfig(gain=x), ValueError),
    "UVSConfig.damping": (lambda x: UVSConfig(damping=x), ValueError),
    "JacobianEstimate.damping": (lambda x: JacobianEstimate(np.eye(2), damping=x), ValueError),
    "uvs_init_jacobian.eps_explore": (
        lambda x: uvs_init_jacobian(WorldState(), TaskSpec(), oracle_sensor(TaskSpec()), x),
        ValueError),
    "TaskSpec.sprite_radius": (lambda x: TaskSpec(sprite_radius=x), ValueError),
    "TaskSpec.a_max": (lambda x: TaskSpec(a_max=x), ValueError),
    "ReinforceConfig.learning_rate": (lambda x: ReinforceConfig(learning_rate=x), ValueError),
    "ReinforceConfig.k_gain": (lambda x: ReinforceConfig(k_gain=x), ValueError),
    "TrainConfig.learning_rate": (lambda x: TrainConfig(learning_rate=x), ConfigError),
    "EncoderSpec.alpha": (lambda x: EncoderSpec(method=Method.BVAE, alpha=x), ConfigError),
    "EncoderSpec.temperature": (lambda x: EncoderSpec(method=Method.SAE, temperature=x),
                                ConfigError),
    "compute_beta.alpha": (lambda x: compute_beta(x, 1024, 50), ConfigError),
    "spatial_softmax.temperature": (
        lambda x: ad.spatial_softmax(ad.Tensor(np.zeros((1, 2, 2))), temperature=x),
        ValueError),
    "finite_diff_check.epsilon": (lambda x: ad.finite_diff_check(None, {}, epsilon=x),
                                  ValueError),
    "injectivity_metric.eps": (lambda x: injectivity_metric(None, x), ValueError),
    "DemoConfig.arc_bulge": (lambda x: DemoConfig(pattern=Pattern.ARC, arc_bulge=x),
                             ValueError),
    "AnalysisConfig.collision_fraction": (lambda x: AnalysisConfig(collision_fraction=x),
                                          ValueError),
    "AnalysisConfig.alpha_sweep": (lambda x: AnalysisConfig(alpha_sweep=(1.0, x)), ValueError),
    "ControlConfig.goal_workspace_tol": (lambda x: ControlConfig(goal_workspace_tol=x),
                                         ValueError),
    "LatentVector.sigma": (lambda x: LatentVector(values=[1.0, 2.0], sigma=[1.0, x]),
                           ValueError),
    "log.input": (lambda x: ad.log(ad.Tensor(np.array([1.0, x]))), ValueError),
}


@pytest.mark.parametrize("build, error", list(POSITIVE.values()), ids=list(POSITIVE))
def test_a_positivity_check_refuses_nan(build, error):
    """NaN fails ``x > 0`` as 0 does, so it is refused with the same error."""
    for bad in (0.0, NAN):
        with pytest.raises(ValueError) as refused:
            build(bad)
        assert type(refused.value) is error


class TestJacobian:
    def test_oracle_identity(self, spec):
        sensor = oracle_sensor(spec)
        state = WorldState(position=np.array([0.5, 0.5]))
        jac = uvs_init_jacobian(state, spec, sensor, eps_explore=0.02)
        np.testing.assert_allclose(jac.matrix, np.eye(2), atol=1e-9)
        assert not jac.ill_conditioned

    def test_scaled_oracle_doubles(self, spec):
        sensor = lambda s: 2.0 * oracle_sensor(spec)(s)
        state = WorldState(position=np.array([0.5, 0.5]))
        jac = uvs_init_jacobian(state, spec, sensor, eps_explore=0.02)
        np.testing.assert_allclose(jac.matrix, 2.0 * np.eye(2), atol=1e-9)

    def test_degenerate_column_flagged(self, spec):
        sensor = lambda positions: np.zeros((len(positions), 2))
        jac = uvs_init_jacobian(WorldState(), spec, sensor, eps_explore=0.02)
        assert jac.ill_conditioned

    def test_condition_number_read_from_the_current_matrix(self):
        jac = JacobianEstimate(matrix=np.diag([1.0, 4.0]), damping=1e-3)
        assert jac.condition_number == pytest.approx(4.0)
        assert not jac.ill_conditioned
        jac = broyden_update(jac, np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert jac.condition_number == pytest.approx(2.0)

    def test_singular_matrix_flagged(self):
        jac = JacobianEstimate(matrix=np.array([[1.0, 0.0], [2.0, 0.0]]), damping=1e-3)
        assert jac.condition_number == np.inf
        assert jac.ill_conditioned

    def test_failed_solve_flag_survives_broyden_updates(self):
        # J^T J overflows, so the damped solve gives no finite step
        J = np.array([[1e200, 1e200], [0.0, 1.0]])
        assert not JacobianEstimate(matrix=J, damping=1e-3).ill_conditioned
        with np.errstate(all="ignore"):
            dq, failed = uvs_steps(J[None], np.ones((1, 2)), 1e-3 * np.eye(2), 1.0, 0.05)
        np.testing.assert_array_equal(dq, np.zeros((1, 2)))
        assert failed.tolist() == [True]
        # A controller whose probes read J flags the row, keeps the flag
        # through a Broyden update and writes it with the row's estimate.
        spec = TaskSpec()
        ctrl = UVSController(UVSConfig(), spec)
        z = np.array([[0.0, 0.0]])
        with np.errstate(all="ignore"):
            ctrl.begin(np.array([[0.5, 0.5]]), lambda positions: positions @ J.T)
            assert not ctrl.degenerate.any()
            np.testing.assert_array_equal(ctrl.act(z, np.ones(2)), np.zeros((1, 2)))
        assert ctrl.degenerate.tolist() == [True]
        before = ctrl.J.copy()
        ctrl.observe(z, np.array([[0.0, 0.1]]), np.array([[0.0, 0.3]]))
        assert not np.array_equal(ctrl.J, before)
        ctrl.keep(np.array([False]))
        assert ctrl.jacobians[0].ill_conditioned

    def test_eps_bounded_by_action_limit(self, spec):
        with pytest.raises(ValueError, match="eps_explore"):
            uvs_init_jacobian(WorldState(), spec, oracle_sensor(spec), eps_explore=0.2)


def _uvs_step(J, e, gain, a_max):
    """``uvs_steps`` on a one-row stack, whose solve must not fail."""
    dq, failed = uvs_steps(J[None], e[None], 1e-3 * np.eye(J.shape[1]), gain, a_max)
    assert failed.tolist() == [False]
    return dq[0]


class TestUVSStep:
    def test_zero_error_zero_action(self):
        np.testing.assert_array_equal(_uvs_step(np.eye(2), np.zeros(2), 1.0, 0.05),
                                      np.zeros(2))

    def test_identity_closed_form(self):
        e = np.array([0.01, 0.0])
        dq = _uvs_step(np.eye(2), e, gain=1.0, a_max=1.0)
        np.testing.assert_allclose(dq, -e / (1.0 + 1e-3), rtol=1e-9)

    def test_clipping_preserves_direction(self):
        e = np.array([0.3, 0.4])
        dq = _uvs_step(np.eye(2), e, gain=1.0, a_max=0.05)
        assert np.linalg.norm(dq) == pytest.approx(0.05)
        cos = dq @ (-e) / (np.linalg.norm(dq) * np.linalg.norm(e))
        assert cos == pytest.approx(1.0)

    def test_error_length_checked(self, spec):
        # a UVS controller's errors are its sensor's rows less z*
        sensor = oracle_sensor(spec)
        with pytest.raises(ValueError, match="length"):
            control_loop(UVSController(UVSConfig(), spec), WorldState(), spec, sensor,
                         np.zeros(3), eps_goal=0.02, max_steps=5)


class TestBroyden:
    def test_exact_prediction_no_change(self):
        jac = JacobianEstimate(matrix=np.array([[1.0, 0.5], [0.0, 2.0]]), damping=1e-3)
        dq = np.array([0.01, -0.02])
        dz = jac.matrix @ dq
        out = broyden_update(jac, dq, dz)
        np.testing.assert_allclose(out.matrix, jac.matrix, atol=1e-12)

    def test_zero_jacobian_first_column(self):
        jac = JacobianEstimate(matrix=np.zeros((2, 2)), damping=1e-3)
        out = broyden_update(jac, np.array([1.0, 0.0]), np.array([2.0, 3.0]))
        np.testing.assert_allclose(out.matrix[:, 0], [2.0, 3.0])
        np.testing.assert_allclose(out.matrix[:, 1], [0.0, 0.0])

    def test_secant_identity_thousand_random_updates(self):
        rng = np.random.default_rng(77)
        jac = JacobianEstimate(matrix=rng.standard_normal((3, 2)), damping=1e-3)
        for _ in range(1000):
            dq = rng.standard_normal(2) * 0.05
            dz = rng.standard_normal(3) * 0.05
            jac = broyden_update(jac, dq, dz)
            assert np.linalg.norm(jac.matrix @ dq - dz) < 1e-9

    def test_tiny_step_leaves_jacobian(self):
        jac = JacobianEstimate(matrix=np.eye(2), damping=1e-3)
        out = broyden_update(jac, np.zeros(2), np.array([1.0, 1.0]))
        assert out is jac


def _one_row_uvs_step(J, e, damping, gain, a_max):
    """The damped step on 2-D arrays through ``np.linalg.solve`` and
    ``np.linalg.norm``: the reference each row of ``uvs_steps`` must match.
    Returns the action and whether the solve failed."""
    m = J.shape[1]
    try:
        dq = -gain * np.linalg.solve(J.T @ J + damping * np.eye(m), J.T @ e)
    except np.linalg.LinAlgError:
        return np.zeros(m), True
    if not np.isfinite(dq).all():
        return np.zeros(m), True
    norm = float(np.linalg.norm(dq))
    return (dq * (a_max / norm) if norm > a_max else dq), False


def _one_row_broyden(J, dq, dz):
    """The secant update on 2-D arrays: the reference for ``broyden_updates``."""
    denom = float(dq @ dq)
    if denom < MIN_UPDATE_NORM:
        return J
    J = J + np.outer(dz - J @ dq, dq) / denom
    if not np.isfinite(J).all():
        raise ValueError("Jacobian entries must be finite")
    return J


@st.composite
def _servo_stacks(draw):
    """(J, errors, damping): n Jacobians of k factors by m dof, each row at its
    own scale, and one damping per row."""
    n, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 2))
    J = draw(hnp.arrays(np.float64, (n, k, m), elements=st.floats(-10.0, 10.0)))
    scale = draw(hnp.arrays(np.float64, (n, 1, 1),
                            elements=st.sampled_from([1e-3, 1.0, 1e3])))
    errors = draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-1.0, 1.0)))
    damping = draw(hnp.arrays(np.float64, (n, 1, 1),
                              elements=st.sampled_from([1e-3, 0.1])))
    return J * scale, errors, damping


class TestStackedServo:
    """``uvs_steps`` and ``broyden_updates`` give each row the bits of the
    one-row form on 2-D arrays, and flag or raise on the same rows."""

    @given(_servo_stacks(), st.floats(0.1, 2.0), st.sampled_from([0.05, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_uvs_rows_match_the_one_row_step(self, stacks, gain, a_max):
        J, errors, damping = stacks
        actions, failed = uvs_steps(J, errors, damping * np.eye(J.shape[2]), gain, a_max)
        for i in range(len(J)):
            want, want_failed = _one_row_uvs_step(J[i], errors[i], damping[i, 0, 0],
                                                  gain, a_max)
            assert actions[i].tobytes() == want.tobytes() and failed[i] == want_failed

    @pytest.mark.parametrize("dof", [1, 2])
    def test_a_singular_or_non_finite_row_fails_alone(self, dof):
        rng = np.random.default_rng(31)
        J = rng.standard_normal((5, 2, dof))
        errors = rng.standard_normal((5, 2)) * 0.1
        if dof == 2:
            J[1] = 1e10        # J^T J + 1e-3 I rounds to a singular matrix
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(J[1].T @ J[1] + 1e-3 * np.eye(2), J[1].T @ errors[1])
        else:
            errors[1, 1] = np.nan  # a 1x1 system is never singular
        errors[3, 0] = np.inf  # a non-finite right-hand side: no finite step
        damping = np.full((5, 1, 1), 1e-3)
        with np.errstate(invalid="ignore"):
            actions, failed = uvs_steps(J, errors, damping * np.eye(dof), 0.5, 0.05)
            wants = [_one_row_uvs_step(J[i], errors[i], 1e-3, 0.5, 0.05)
                     for i in range(5)]
        assert failed.tolist() == [False, True, False, True, False]
        for row, (want, want_failed) in zip(actions, wants):
            assert row.tobytes() == want.tobytes()
        assert not actions[[1, 3]].any()
        with np.errstate(invalid="ignore"):
            alone, alone_failed = uvs_steps(J[1:2], errors[1:2], 1e-3 * np.eye(dof), 0.5,
                                            0.05)
        assert not alone.any() and alone_failed.tolist() == [True]

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_broyden_rows_match_the_one_row_update(self, data):
        J, _, _ = data.draw(_servo_stacks())
        n, k, m = J.shape
        dq = data.draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-0.05, 0.05)))
        dz = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-0.1, 0.1)))
        got, updated = broyden_updates(J, dq, dz)
        for i in range(n):
            assert got[i].tobytes() == _one_row_broyden(J[i], dq[i], dz[i]).tobytes()
            assert updated[i] == (float(dq[i] @ dq[i]) >= MIN_UPDATE_NORM)

    def test_a_short_step_keeps_its_row(self):
        J = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        dq = np.array([[0.01, 0.02], [1e-7, 0.0], [0.0, 0.0]])
        dz = np.array([[0.03, 0.01], [1.0, 1.0], [1.0, 1.0]])
        got, updated = broyden_updates(J, dq, dz)
        assert updated.tolist() == [True, False, False]
        assert got[1].tobytes() == J[1].tobytes() and got[2].tobytes() == J[2].tobytes()
        assert got[0].tobytes() == _one_row_broyden(J[0], dq[0], dz[0]).tobytes()

    def test_a_non_finite_update_raises_as_alone(self):
        J = np.stack([np.eye(2), np.eye(2)])
        dq = np.array([[0.01, 0.02], [1e-3, 0.0]])
        dz = np.array([[0.03, 0.01], [1e308, 0.0]])  # the update overflows
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="Jacobian entries must be finite"):
                _one_row_broyden(J[1], dq[1], dz[1])
            with pytest.raises(ValueError, match="Jacobian entries must be finite"):
                broyden_updates(J, dq, dz)
            with pytest.raises(ValueError, match="Jacobian entries must be finite"):
                broyden_update(JacobianEstimate(matrix=J[1], damping=1e-3), dq[1], dz[1])


class TestStackedPolicy:
    """The guidance, the policy mean and a sampled action on a stack give each
    row its one-row bits."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_match_one_row_calls(self, data):
        k = data.draw(st.integers(1, 3))
        policy = Policy.create(k=k, dof=k, hidden=16, seed=data.draw(st.integers(0, 9)))
        rng = np.random.default_rng(data.draw(st.integers(0, 9)))
        for p in policy.params.values():       # non-zero heads
            p.data[...] = (rng.standard_normal(p.data.shape) * 0.5).astype(np.float32)
        n = data.draw(st.integers(1, 10))
        z = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(-3.0, 3.0)))
        z_star = data.draw(hnp.arrays(np.float64, (k,), elements=st.floats(-3.0, 3.0)))
        a_max, k_gain = data.draw(st.sampled_from([0.05, 1.0])), 0.5
        a_hat = guidance_action(z_star, z, a_max, k_gain)
        mean = policy.mean_action(z, a_hat)
        # a stack's noise is each row's one-reading draw, in row order
        stack_rng, row_rng = np.random.default_rng(5), np.random.default_rng(5)
        action, raw = sample_action(policy, z, a_hat, stack_rng, a_max)
        for i in range(n):
            one_hat = guidance_action(z_star, z[i], a_max, k_gain)
            assert a_hat[i].tobytes() == one_hat.tobytes()
            assert mean[i].tobytes() == policy.mean_action(z[i], one_hat).tobytes()
            one_action, one_raw = sample_action(policy, z[i], one_hat, row_rng, a_max)
            assert raw[i].tobytes() == one_raw.tobytes()
            assert action[i].tobytes() == one_action.tobytes()


class TestReward:
    def test_goal_bonus_at_target(self):
        z = np.array([0.3, 0.4])
        assert reward(z, z, eps_goal=0.01, r_goal=10.0) == pytest.approx(10.0)

    def test_euclidean_outside_goal(self):
        assert reward(np.array([3.0, 4.0]), np.zeros(2), 0.1, 10.0) == pytest.approx(-5.0)

    def test_monotone_in_error(self):
        z_star = np.zeros(2)
        errs = [reward(np.array([d, 0.0]), z_star, 1e-6, 10.0) for d in (0.5, 0.3, 0.1)]
        assert errs[0] < errs[1] < errs[2]

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        z, z_star, c = rng.standard_normal((3, 4))
        a = reward(z, z_star, 0.05, 10.0)
        b = reward(z + c, z_star + c, 0.05, 10.0)
        assert a == pytest.approx(b, rel=1e-12)


def _norm_reward(z_v, z_star, eps_goal, r_goal):
    """The reward through ``np.linalg.norm``: the reference."""
    err = float(np.linalg.norm(np.asarray(z_v, dtype=np.float64)
                               - np.asarray(z_star, dtype=np.float64)))
    return -err + (r_goal if err < eps_goal else 0.0)


class TestRewardAgainstLinalgNorm:
    @staticmethod
    def _same(z_v, z_star, eps_goal, r_goal=10.0):
        got = reward(z_v, z_star, eps_goal, r_goal)
        want = _norm_reward(z_v, z_star, eps_goal, r_goal)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_random_factor_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(3000):
            k = int(rng.integers(1, 5))
            z, z_star = rng.standard_normal((2, k)) * 10.0 ** rng.integers(-4, 2)
            self._same(z, z_star, eps_goal=float(rng.choice([1e-3, 0.05, 1.0])))

    def test_float32_rows(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            z, z_star = rng.standard_normal((2, 2)).astype(np.float32)
            self._same(z, z_star, eps_goal=0.5)

    def test_zero_error_and_error_exactly_at_the_tolerance(self):
        z = np.array([0.3, 0.4])
        self._same(z, z, eps_goal=0.01)
        self._same(np.array([3.0, 4.0]), np.zeros(2), eps_goal=5.0)   # err == eps: no bonus
        assert reward(np.array([3.0, 4.0]), np.zeros(2), 5.0, 10.0) == -5.0


class TestGuidance:
    def test_clip_to_unit(self):
        a = guidance_action(np.array([3.0, 4.0]), np.zeros(2), a_max=1.0, k_gain=1.0)
        np.testing.assert_allclose(a, [0.6, 0.8])

    def test_within_limit_unclipped(self):
        a = guidance_action(np.array([0.3, 0.4]), np.zeros(2), a_max=1.0, k_gain=1.0)
        np.testing.assert_allclose(a, [0.3, 0.4])

    def test_zero_error_zero_action(self):
        z = np.array([0.2, 0.7])
        np.testing.assert_array_equal(guidance_action(z, z, 1.0, 1.0), np.zeros(2))

    def test_direction_equals_error_direction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e = rng.standard_normal(2)
            a = guidance_action(e, np.zeros(2), a_max=0.05, k_gain=0.7)
            cos = a @ e / (np.linalg.norm(a) * np.linalg.norm(e))
            assert cos == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            guidance_action(np.zeros(3), np.zeros(2), 1.0, 1.0)


class TestPolicy:
    def test_fresh_policy_mean_is_guidance(self, spec):
        policy = Policy.create(k=2, dof=2, seed=0)
        ctrl = GuidedReinforceController(policy, spec, k_gain=1.0)
        z = np.array([0.2, 0.2])
        z_star = np.array([0.25, 0.2])
        np.testing.assert_allclose(ctrl.act(z, z_star),
                                   guidance_action(z_star, z, spec.a_max, 1.0),
                                   atol=1e-12)

    def test_seeded_sampling_deterministic(self):
        policy = Policy.create(k=2, dof=2, seed=0)
        z = np.array([0.1, 0.2])
        a_hat = np.array([0.01, 0.0])
        a1, r1 = sample_action(policy, z, a_hat, np.random.default_rng(5), 0.05)
        a2, r2 = sample_action(policy, z, a_hat, np.random.default_rng(5), 0.05)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(r1, r2)

    def test_sample_mean_matches_policy_mean(self):
        # mean of many raw samples ~ guidance + correction within 3 SE
        policy = Policy.create(k=2, dof=2, seed=1)
        policy.params["mu_w2"].data[:] = np.random.default_rng(2).standard_normal(
            policy.params["mu_w2"].data.shape).astype(np.float32) * 0.01
        z = np.array([0.3, -0.1])
        a_hat = np.array([0.02, 0.01])
        rng = np.random.default_rng(9)
        raws = np.array([sample_action(policy, z, a_hat, rng, 10.0)[1]
                         for _ in range(10000)])
        from latentservo.autodiff import Tensor
        expected = a_hat + policy.mean_correction(
            Tensor(z[None].astype(np.float32))).data[0]
        se = policy.std() / math.sqrt(10000)
        assert np.all(np.abs(raws.mean(axis=0) - expected) < 3 * se)

    def test_near_zero_variance_acts_like_guidance(self, spec):
        policy = Policy.create(k=2, dof=2, seed=0, init_log_std=-30.0)
        z = np.array([0.5, 0.5])
        a_hat = np.array([0.01, -0.02])
        a, raw = sample_action(policy, z, a_hat, np.random.default_rng(1), spec.a_max)
        np.testing.assert_allclose(raw, a_hat, atol=1e-9)


class TestTapeFreePolicyForward:
    """``mean_action`` runs ``mean_correction``'s ops without a tape; the bits agree."""

    @staticmethod
    def _policies():
        fresh = Policy.create(k=3, dof=2, hidden=16, seed=4)
        trained = Policy.create(k=3, dof=2, hidden=16, seed=5)
        rng = np.random.default_rng(6)
        for p in trained.params.values():       # non-zero heads and log-std
            p.data[...] = (rng.standard_normal(p.data.shape) * 0.5).astype(np.float32)
        return fresh, trained

    @staticmethod
    def _taped_mean(policy, z, a_hat):
        import latentservo.autodiff as ad
        with ad.Tape() as tape:
            mu = policy.mean_correction(ad.Tensor(z[None].astype(np.float32)))
        assert tape.nodes     # the parameters were recorded: the training forward
        return a_hat + mu.data[0].astype(np.float64)

    def test_mean_action_equals_the_taped_forward(self):
        rng = np.random.default_rng(7)
        for policy in self._policies():
            for _ in range(300):
                z = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 1)
                a_hat = rng.standard_normal(2) * 0.05
                want = self._taped_mean(policy, z, a_hat)
                got = policy.mean_action(z, a_hat)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_seeded_sample_action_equals_the_taped_forward(self):
        rng = np.random.default_rng(8)
        for policy in self._policies():
            draws, noise = np.random.default_rng(9), np.random.default_rng(9)
            for _ in range(300):
                z = rng.standard_normal(3)
                a_hat = rng.standard_normal(2) * 0.05
                action, raw = sample_action(policy, z, a_hat, draws, 0.05)
                want_raw = (self._taped_mean(policy, z, a_hat)
                            + policy.std() * noise.standard_normal(2))
                norm = float(np.linalg.norm(want_raw))
                want = want_raw * (0.05 / norm) if norm > 0.05 else want_raw
                assert raw.tobytes() == want_raw.tobytes()
                assert action.tobytes() == want.tobytes()


class TestReinforceUpdate:
    def test_returns_single_step(self):
        np.testing.assert_allclose(discounted_returns(np.array([2.5]), 0.5), [2.5])

    def test_returns_discounting(self):
        g = discounted_returns(np.array([1.0, 1.0, 1.0]), 0.5)
        np.testing.assert_allclose(g, [1.75, 1.5, 1.0])

    def test_zero_noise_update_is_zero(self):
        # raw actions exactly at the policy mean: score term vanishes for the
        # mean net and the baseline cancels the log-std term
        policy = Policy.create(k=2, dof=2, seed=3)
        rng = np.random.default_rng(0)
        zs = rng.standard_normal((5, 2)).astype(np.float64)
        guides = rng.standard_normal((5, 2)) * 0.01
        from latentservo.autodiff import Tensor
        means = guides + policy.mean_correction(Tensor(zs.astype(np.float32))).data
        ep = TrainEpisode(zs=zs, guidance=guides, raw_actions=means,
                          rewards=rng.uniform(-1, 0, 5))
        before = {k: v.data.copy() for k, v in policy.params.items()}
        reinforce_update([ep], policy, ReinforceConfig(learning_rate=0.1, seed=0))
        for k, v in policy.params.items():
            assert float(np.abs(v.data - before[k]).max()) < 1e-6, k

    def test_empty_batch_rejected(self):
        policy = Policy.create(k=2, dof=2)
        with pytest.raises(ValueError, match="empty"):
            reinforce_update([], policy, ReinforceConfig())

    def test_update_deterministic(self):
        def run():
            policy = Policy.create(k=2, dof=2, seed=3)
            rng = np.random.default_rng(4)
            ep = TrainEpisode(zs=rng.standard_normal((6, 2)),
                              guidance=rng.standard_normal((6, 2)) * 0.01,
                              raw_actions=rng.standard_normal((6, 2)) * 0.05,
                              rewards=rng.uniform(-1, 0, 6))
            reinforce_update([ep], policy, ReinforceConfig(learning_rate=0.01))
            return {k: v.data.tobytes() for k, v in policy.params.items()}
        assert run() == run()

    def test_gradient_shape_mismatch_rejected(self, monkeypatch):
        # the update is applied by SGD.step, which checks each gradient's
        # shape against its parameter
        import latentservo.autodiff as ad
        backward = ad.backward

        def misshapen(loss, params):
            grads = backward(loss, params)
            grads["log_std"] = grads["log_std"][None]
            return grads

        monkeypatch.setattr(ad, "backward", misshapen)
        policy = Policy.create(k=2, dof=2, seed=3)
        rng = np.random.default_rng(4)
        ep = TrainEpisode(zs=rng.standard_normal((6, 2)),
                          guidance=rng.standard_normal((6, 2)) * 0.01,
                          raw_actions=rng.standard_normal((6, 2)) * 0.05,
                          rewards=rng.uniform(-1, 0, 6))
        with pytest.raises(ad.ShapeError, match="log_std"):
            reinforce_update([ep], policy, ReinforceConfig(learning_rate=0.01))


class TestControlLoop:
    def test_start_at_goal_zero_steps(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        start = WorldState(position=np.asarray(spec.target))
        ctrl = UVSController(UVSConfig(), spec)
        res = control_loop(ctrl, start, spec, sensor, z_star,
                           eps_goal=0.02, max_steps=10)
        assert res.success and res.steps == 0

    def test_start_at_goal_records_empty_traces(self, spec):
        # A trial's table header is built from these shapes, rows or not.
        def sensor(positions):
            positions = np.asarray(positions, dtype=np.float64)
            return np.hstack([positions, positions[:, :1]])

        z_star = target_factors(sensor, spec)
        res = control_loop(UVSController(UVSConfig(), spec),
                           WorldState(position=np.asarray(spec.target)), spec, sensor,
                           z_star, eps_goal=0.02, max_steps=10)
        assert res.steps == 0 and res.rewards == []
        assert res.zs.shape == (0, 3) and res.actions.shape == (0, spec.dof)

    def test_budget_one_distant_goal(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        ctrl = UVSController(UVSConfig(), spec)
        res = control_loop(ctrl, WorldState(position=np.array([0.1, 0.1])),
                           spec, sensor, z_star, eps_goal=0.02, max_steps=1)
        assert not res.success and res.steps == 1

    def test_oracle_uvs_converges_within_bound(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        cfg = UVSConfig()
        rng = np.random.default_rng(123)
        for _ in range(20):
            start_pos = random_start(spec, rng)
            res = control_loop(UVSController(cfg, spec),
                               WorldState(position=start_pos), spec, sensor,
                               z_star, eps_goal=0.02, max_steps=200)
            dist = np.linalg.norm(start_pos - np.asarray(spec.target))
            bound = math.ceil(dist / (cfg.gain * spec.a_max)) + 5
            assert res.success, f"no convergence from {start_pos}"
            assert res.steps <= bound

    def test_nonfinite_action_aborts(self, spec):
        class BadController:
            def begin(self, positions, sensor):
                pass

            def act(self, z, z_star):
                return np.tile([np.nan, 0.0], (len(z), 1))

            def observe(self, *a):
                pass

            def keep(self, rows):
                pass

        sensor = oracle_sensor(spec)
        res = control_loop(BadController(), WorldState(position=np.array([0.1, 0.1])),
                           spec, sensor, target_factors(sensor, spec),
                           eps_goal=0.02, max_steps=10)
        assert res.aborted and not res.success

    def test_trace_reproducible(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)

        def run():
            res = control_loop(UVSController(UVSConfig(), spec),
                               WorldState(position=np.array([0.2, 0.3])),
                               spec, sensor, z_star, eps_goal=0.02, max_steps=100)
            return (res.zs.tobytes(), res.actions.tobytes(),
                    np.asarray(res.rewards).tobytes(), res.success, res.steps)
        assert run() == run()

    def test_trace_columns_hold_one_row_per_step(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        res = control_loop(UVSController(UVSConfig(), spec),
                           WorldState(position=np.array([0.2, 0.3])), spec, sensor,
                           z_star, eps_goal=0.02, max_steps=100)
        assert res.steps > 0 and len(res.rewards) == res.steps
        assert res.zs.shape == (res.steps, 2) and res.actions.shape == (res.steps, 2)
        # Row i holds step i's reading and the reward earned by it.
        assert res.rewards[-1] == reward(res.zs[-1], z_star, 0.02, 10.0)


def _one_episode(controller, start, spec, sensor, z_star, eps_goal, max_steps,
                 r_goal=10.0):
    """The loop one episode at a time, one one-row sensor call per reading:
    the reference that episodes stepped together must match. A begun
    controller's row leaves (``keep``) when the episode ends."""
    state = start
    z = sensor(state.position[None])[0]
    errors, rewards, zs, actions = [float(np.linalg.norm(z - z_star))], [], [], []
    success = aborted = False
    if errors[0] < eps_goal:
        success = True
    else:
        controller.begin(state.position[None], sensor)
        for _ in range(max_steps):
            action = np.asarray(controller.act(z[None], z_star)[0], dtype=np.float64)
            if not np.all(np.isfinite(action)):
                aborted = True
                break
            state = step(state, action, spec)
            z_new = sensor(state.position[None])[0]
            controller.observe(z[None], action[None], z_new[None])
            rewards.append(reward(z_new, z_star, eps_goal, r_goal))
            zs.append(z_new)
            actions.append(action)
            z = z_new
            errors.append(float(np.linalg.norm(z - z_star)))
            if errors[-1] < eps_goal:
                success = True
                break
        controller.keep(np.zeros(1, dtype=bool))
    return dict(success=success, steps=len(rewards), latent_errors=errors,
                rewards=rewards,
                final_task_error=float(np.linalg.norm(state.position
                                                      - np.asarray(spec.target))),
                zs=np.reshape(zs, (-1, len(z_star))),
                actions=np.reshape(actions, (-1, spec.dof)), aborted=aborted)


class NaNWhereAtStep:
    """Wraps a row-stack controller; at step ``k`` (0-based) it emits NaN
    actions in the rows whose start position satisfies ``where``."""

    def __init__(self, inner, where, k):
        self.inner, self.where, self.k, self.t = inner, where, k, 0

    def begin(self, positions, sensor):
        self.marked = self.where(positions)
        self.inner.begin(positions, sensor)

    def act(self, z, z_star):
        actions = self.inner.act(z, z_star)
        self.t += 1
        if self.t - 1 == self.k:
            actions = np.where(self.marked[:, None], np.nan, actions)
        return actions

    def observe(self, z_before, actions, z_after):
        self.inner.observe(z_before, actions, z_after)

    def keep(self, rows):
        self.marked = self.marked[rows]
        self.inner.keep(rows)


class ValueWhere:
    """Wraps a sensor and reads ``value`` in each row where ``where(positions)`` holds."""

    def __init__(self, base, where, value=np.nan):
        self.base, self.where, self.value = base, where, value

    def __call__(self, positions):
        return np.where(self.where(positions)[:, None], self.value, self.base(positions))


def _near_target(spec, radius=0.05):
    return lambda p: np.linalg.norm(p - np.asarray(spec.target), axis=1) < radius


class CountingSensor:
    def __init__(self, base):
        self.base, self.calls, self.rows = base, 0, 0

    def __call__(self, positions):
        self.calls += 1
        self.rows += len(positions)
        return self.base(positions)


def _as_fields(result):
    return {name: getattr(result, name) for name in (
        "success", "steps", "latent_errors", "rewards", "final_task_error", "zs",
        "actions", "aborted")}


def _assert_same_episode(got: dict, want: dict):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, (np.ndarray, list)):  # by bytes, so NaN readings compare
            got_value, value = np.asarray(got[name]), np.asarray(value)
            assert got_value.shape == value.shape, name
            assert got_value.tobytes() == value.tobytes(), name
        else:
            assert got[name] == value, name


class TestRunEpisodes:
    STARTS = np.array([[0.1, 0.1], [0.7, 0.7], [0.85, 0.2], [0.3, 0.9], [0.5, 0.45]])

    def _sae_sensor(self):
        spec = EncoderSpec(method=Method.SAE, sae_channels=4, seed=7)
        model = ModelWeights(spec=spec, params=init_params(spec))
        return model_sensor(model, FactorSet(indices=(0, 5), tau=0.2,
                                             spreads=np.ones(8)), TaskSpec())

    @pytest.mark.parametrize("sensor_kind", ["oracle", "sae"])
    @pytest.mark.parametrize("controller_kind", ["uvs", "guided"])
    def test_lockstep_equals_one_episode_at_a_time(self, spec, sensor_kind,
                                                   controller_kind):
        # One controller for every start; one start is at the goal and the
        # others arrive at different steps or not at all.
        sensor = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy = Policy.create(k=2, dof=2, seed=1)
        starts = np.vstack([self.STARTS, [[0.7, 0.76], [0.62, 0.74]]])

        make = ((lambda: UVSController(UVSConfig(), spec)) if controller_kind == "uvs"
                else (lambda: GuidedReinforceController(policy, spec, k_gain=0.5)))
        got = run_episodes(make(), starts, spec, sensor, z_star, eps_goal, max_steps=40)
        singles = [control_loop(make(), WorldState(position=p), spec, sensor, z_star,
                                eps_goal, max_steps=40)
                   for p in starts]
        reference = [_one_episode(make(), WorldState(position=p), spec, sensor, z_star,
                                  eps_goal, max_steps=40)
                     for p in starts]
        assert reference[1]["success"] and reference[1]["steps"] == 0
        assert len({r["steps"] for r in reference if r["success"] and r["steps"]}) > 1
        for lockstep, single, ref in zip(got, singles, reference):
            _assert_same_episode(_as_fields(lockstep), ref)
            _assert_same_episode(_as_fields(single), ref)

    @pytest.mark.parametrize("sensor_kind", ["oracle", "sae"])
    def test_every_controller_equals_one_episode_at_a_time(self, spec, sensor_kind):
        # Two UVS gains, two guided policies and wrapped controllers that
        # abort chosen rows mid-stack, one controller per run, whose rows
        # leave at different steps.
        sensor = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy, other = Policy.create(k=2, dof=2, seed=1), Policy.create(k=2, dof=2, seed=2)
        other.params["mu_w2"].data[...] = 0.05
        starts = np.vstack([self.STARTS, [[0.2, 0.6], [0.9, 0.9], [0.15, 0.4]]])
        left = lambda p: p[:, 0] < 0.2               # starts 0 and 7
        runs = {
            "uvs": lambda: NaNWhereAtStep(UVSController(UVSConfig(), spec), left, k=3),
            "uvs gain 0.3": lambda: UVSController(UVSConfig(gain=0.3), spec),
            "guided": lambda: NaNWhereAtStep(
                GuidedReinforceController(policy, spec, k_gain=0.5), left, k=5),
            "other guided": lambda: GuidedReinforceController(other, spec, k_gain=0.8),
        }
        steps = set()
        for name, make in runs.items():
            controller, alone = make(), [make() for _ in starts]
            got = run_episodes(controller, starts, spec, sensor, z_star, eps_goal,
                               max_steps=40)
            reference = [_one_episode(c, WorldState(position=p), spec, sensor, z_star,
                                      eps_goal, max_steps=40)
                         for c, p in zip(alone, starts)]
            assert reference[1]["success"] and reference[1]["steps"] == 0, name
            for result, ref in zip(got, reference):
                _assert_same_episode(_as_fields(result), ref)
            steps |= {r["steps"] for r in reference}
            if isinstance(controller, NaNWhereAtStep):
                assert [r["aborted"] for r in reference] == [
                    i in (0, 7) for i in range(len(starts))], name
            # each begun row hands back the Jacobian it would end with alone
            inner = getattr(controller, "inner", controller)
            if isinstance(inner, UVSController):
                begun = [getattr(c, "inner", c) for c, ref in zip(alone, reference)
                         if ref["steps"] or not ref["success"]]
                assert len(inner.jacobians) == len(begun) == len(starts) - 1
                for got_jac, ref in zip(inner.jacobians, begun):
                    want = ref.jacobians[0]
                    assert got_jac.matrix.tobytes() == want.matrix.tobytes()
                    assert got_jac.degenerate == want.degenerate
        assert len(steps) > 3

    @pytest.mark.parametrize("sensor_kind", ["oracle", "sae"])
    def test_a_sampling_controller_draws_the_one_row_stream(self, spec, sensor_kind):
        # A training rollout's controller: one row, whose samples are the
        # one-reading draws of ``sample_action`` in step order.
        sensor = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy = Policy.create(k=2, dof=2, seed=1)
        make = lambda: GuidedReinforceController(policy, spec, k_gain=0.5,
                                                 rng=np.random.default_rng(4))
        controller, alone = make(), make()
        start = self.STARTS[3]
        got = run_episodes(controller, start[None], spec, sensor, z_star, eps_goal,
                           max_steps=40)
        ref = _one_episode(alone, WorldState(position=start), spec, sensor, z_star,
                           eps_goal, max_steps=40)
        _assert_same_episode(_as_fields(got[0]), ref)
        assert len(controller.samples) == len(alone.samples) == ref["steps"] > 0
        for got_rows, want_rows in zip(controller.samples, alone.samples):
            assert [r.tobytes() for r in got_rows] == [r.tobytes() for r in want_rows]
        rng = np.random.default_rng(4)
        for (z, a_hat, raw), action in zip(controller.samples, got[0].actions):
            assert z.shape == a_hat.shape == raw.shape == (1, 2)
            want_hat = guidance_action(z_star, z[0], spec.a_max, 0.5)
            want_action, want_raw = sample_action(policy, z[0], want_hat, rng, spec.a_max)
            assert a_hat[0].tobytes() == want_hat.tobytes()
            assert raw[0].tobytes() == want_raw.tobytes()
            assert action.tobytes() == want_action.tobytes()

    @pytest.mark.parametrize("sensor_kind", ["oracle", "sae"])
    def test_an_abort_inside_a_stacked_group(self, spec, sensor_kind):
        # The sensor reads NaN in a band that two paths enter after step 0,
        # away from the target: their guided controller emits NaN actions
        # there and those rows abort, and the other rows go on.
        base = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        sensor = ValueWhere(base, lambda p: (p[:, 0] > 0.35) & (p[:, 0] < 0.45))
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy = Policy.create(k=2, dof=2, seed=1)
        reference = [_one_episode(GuidedReinforceController(policy, spec, k_gain=0.5),
                                  WorldState(position=p), spec, sensor, z_star, eps_goal,
                                  max_steps=40)
                     for p in self.STARTS]
        assert [r["aborted"] for r in reference] == [True, False, False, True, False]
        assert min(r["steps"] for r in reference if r["aborted"]) > 0
        got = run_episodes(GuidedReinforceController(policy, spec, k_gain=0.5),
                           self.STARTS, spec, sensor, z_star, eps_goal, max_steps=40)
        for result, ref in zip(got, reference):
            _assert_same_episode(_as_fields(result), ref)

    @pytest.mark.parametrize("sensor_kind", ["oracle", "sae"])
    @pytest.mark.parametrize("controller_kind", ["uvs", "guided"])
    def test_one_act_and_one_observe_call_per_step(self, spec, sensor_kind,
                                                   controller_kind, monkeypatch):
        # Every step makes one act and one observe call on the stack of the
        # episodes still moving.
        sensor = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy = Policy.create(k=2, dof=2, seed=1)
        make = ((lambda: UVSController(UVSConfig(), spec)) if controller_kind == "uvs"
                else (lambda: GuidedReinforceController(policy, spec, k_gain=0.5)))
        reference = [_one_episode(make(), WorldState(position=p), spec, sensor, z_star,
                                  eps_goal, max_steps=40)
                     for p in self.STARTS]
        cls = type(make())
        rows = {"act": [], "observe": []}

        def counted(name):
            method = getattr(cls, name)

            def call(self, z, *args):
                rows[name].append(len(z))
                return method(self, z, *args)
            return call

        monkeypatch.setattr(cls, "act", counted("act"))
        monkeypatch.setattr(cls, "observe", counted("observe"))
        got = run_episodes(make(), self.STARTS, spec, sensor, z_star, eps_goal,
                           max_steps=40)
        for result, ref in zip(got, reference):
            _assert_same_episode(_as_fields(result), ref)
        steps = [r.steps for r in got]
        assert len(rows["act"]) == len(rows["observe"]) == max(steps)
        assert rows["act"] == rows["observe"]
        assert rows["act"] == [sum(s > t for s in steps) for t in range(max(steps))]

    def test_an_empty_group_has_no_episodes(self, spec):
        sensor = oracle_sensor(spec)
        assert run_episodes(UVSController(UVSConfig(), spec), np.empty((0, 2)), spec,
                            sensor, target_factors(sensor, spec), eps_goal=0.02,
                            max_steps=5) == []

    def test_one_stacked_sensor_call_per_step(self, spec):
        sensor = CountingSensor(oracle_sensor(spec))
        z_star = target_factors(oracle_sensor(spec), spec)
        results = run_episodes(UVSController(UVSConfig(), spec), self.STARTS, spec,
                               sensor, z_star, eps_goal=0.02, max_steps=60)
        begun = [not (r.success and r.steps == 0) for r in results]
        assert begun.count(False) == 1 and all(r.success for r in results)
        assert sensor.rows == sum(1 + 2 * spec.dof * b + r.steps
                                  for b, r in zip(begun, results))
        assert sensor.calls == 1 + sum(begun) + max(r.steps for r in results)
        assert sensor.calls <= 60 + 1 + len(self.STARTS)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_target_reading_is_refused(self, spec, value):
        sensor = ValueWhere(oracle_sensor(spec), _near_target(spec), value)
        z_star = target_factors(sensor, spec)
        assert not np.isfinite(z_star).any()
        with pytest.raises(ValueError, match=r"z\* must be finite"):
            evaluate_success(lambda: UVSController(UVSConfig(), spec), spec, sensor,
                             z_star, eps_goal=0.02, max_steps=20, trials=3, seed=5)


class TestEvaluateAndTrain:
    def test_oracle_uvs_perfect_rate(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        stats = evaluate_success(lambda: UVSController(UVSConfig(), spec), spec,
                                 sensor, z_star, eps_goal=0.02, max_steps=100,
                                 trials=10, seed=5)
        assert stats.success_rate == 1.0

    def test_oracle_guidance_perfect_rate(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        policy = Policy.create(k=2, dof=2, seed=0)
        stats = evaluate_success(
            lambda: GuidedReinforceController(policy, spec, k_gain=0.5),
            spec, sensor, z_star, eps_goal=0.02, max_steps=100, trials=10, seed=6)
        assert stats.success_rate == 1.0

    def test_goal_tolerance_calibration_oracle(self, spec):
        sensor = oracle_sensor(spec)
        assert calibrate_goal_tolerance(sensor, spec, 0.02) == pytest.approx(0.02)

    def test_goal_tolerance_refuses_a_nan_reading(self, spec):
        sensor = ValueWhere(oracle_sensor(spec), _near_target(spec))
        with pytest.raises(ValueError, match="locally constant"):
            calibrate_goal_tolerance(sensor, spec, 0.02)

    @pytest.mark.parametrize("start, steps", [((0.2, 0.2), 15), ((0.7, 0.7), 0)],
                             ids=["away", "at_target"])
    def test_rollout_records_consistent_shapes(self, spec, start, steps):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        policy = Policy.create(k=2, dof=2, seed=0)
        cfg = ReinforceConfig(horizon=15, seed=2)
        ep = rollout(policy, spec, sensor, z_star, np.array(start),
                     cfg, eps_goal=0.02, rng=np.random.default_rng(2))
        assert len(ep.rewards) == steps
        assert ep.zs.shape == (steps, 2)
        assert ep.raw_actions.shape == (steps, 2)
        assert ep.guidance.shape == (steps, 2)

    def test_rollout_rejects_a_non_finite_policy(self, spec):
        sensor = oracle_sensor(spec)
        policy = Policy.create(k=2, dof=2, seed=0)
        policy.params["mu_b2"].data[:] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rollout(policy, spec, sensor, target_factors(sensor, spec),
                    np.array([0.2, 0.2]), ReinforceConfig(horizon=15, seed=2),
                    eps_goal=0.02, rng=np.random.default_rng(2))

    def test_factor_action_dof_mismatch_rejected(self, spec):
        policy = Policy.create(k=3, dof=3, seed=0)
        with pytest.raises(ValueError, match="dof"):
            GuidedReinforceController(policy, spec, k_gain=0.5)
