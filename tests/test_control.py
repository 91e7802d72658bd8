"""Servo algebra, guidance, Gaussian policy, and the closed loop on oracles."""

import math

import numpy as np
import pytest

from latentservo.analysis import FactorSet
from latentservo.control import (
    GuidedReinforceController,
    JacobianEstimate,
    Policy,
    ReinforceConfig,
    TrainEpisode,
    UVSConfig,
    UVSController,
    broyden_update,
    calibrate_goal_tolerance,
    control_loop,
    discounted_returns,
    episode_trace_csv,
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
    uvs_step,
)
from latentservo.representations import EncoderSpec, Method, ModelWeights, init_params
from latentservo.toyenv import TaskSpec, WorldState, random_start, step


@pytest.fixture
def spec():
    return TaskSpec()


class TestSensors:
    def _model_sensor(self):
        spec = EncoderSpec(method=Method.SAE, image_size=16, sae_channels=2,
                           sae_conv1_channels=3, sae_decoder_hidden=8, seed=4)
        model = ModelWeights(spec=spec, params=init_params(spec))
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        return model_sensor(model, FactorSet(indices=(0, 3), tau=0.2,
                                             spreads=np.ones(4)), task)

    def test_oracle_reads_positions_row_wise(self):
        positions = np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.7]])
        np.testing.assert_array_equal(oracle_sensor(TaskSpec())(positions), positions)
        np.testing.assert_array_equal(oracle_sensor(TaskSpec(dof=1))(positions),
                                      positions[:, :1])

    def test_model_sensor_gives_float64_factor_rows(self):
        z = self._model_sensor()(np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.7]]))
        assert z.shape == (3, 2) and z.dtype == np.float64

    @pytest.mark.parametrize("n", [2, 3, 10, 16, 33])
    @pytest.mark.parametrize("kind", ["oracle", "sae"])
    def test_a_row_is_sensed_as_if_alone(self, spec, kind, n):
        """Row i of a stacked call equals the one-row call on its position,
        byte for byte, whatever the stack's size or order. The dense encoders
        (AE, VAE, BVAE) do not meet this yet: a stacked sgemm row differs."""
        sensor = oracle_sensor(spec) if kind == "oracle" else self._model_sensor()
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
        jac = JacobianEstimate(matrix=np.array([[1e200, 1e200], [0.0, 1.0]]),
                               damping=1e-3)
        assert not jac.ill_conditioned
        with np.errstate(all="ignore"):
            dq = uvs_step(jac, np.ones(2), 1.0, 0.05)
        np.testing.assert_array_equal(dq, np.zeros(2))
        assert jac.ill_conditioned
        jac = broyden_update(jac, np.array([0.0, 0.1]), np.array([0.0, 0.3]))
        assert jac.ill_conditioned

    def test_eps_bounded_by_action_limit(self, spec):
        with pytest.raises(ValueError, match="eps_explore"):
            uvs_init_jacobian(WorldState(), spec, oracle_sensor(spec), eps_explore=0.2)


class TestUVSStep:
    def test_zero_error_zero_action(self):
        jac = JacobianEstimate(matrix=np.eye(2), damping=1e-3)
        np.testing.assert_array_equal(uvs_step(jac, np.zeros(2), 1.0, 0.05),
                                      np.zeros(2))

    def test_identity_closed_form(self):
        jac = JacobianEstimate(matrix=np.eye(2), damping=1e-3)
        e = np.array([0.01, 0.0])
        dq = uvs_step(jac, e, gain=1.0, a_max=1.0)
        np.testing.assert_allclose(dq, -e / (1.0 + 1e-3), rtol=1e-9)

    def test_clipping_preserves_direction(self):
        jac = JacobianEstimate(matrix=np.eye(2), damping=1e-3)
        e = np.array([0.3, 0.4])
        dq = uvs_step(jac, e, gain=1.0, a_max=0.05)
        assert np.linalg.norm(dq) == pytest.approx(0.05)
        cos = dq @ (-e) / (np.linalg.norm(dq) * np.linalg.norm(e))
        assert cos == pytest.approx(1.0)

    def test_error_length_checked(self):
        jac = JacobianEstimate(matrix=np.eye(2), damping=1e-3)
        with pytest.raises(ValueError, match="length"):
            uvs_step(jac, np.zeros(3), 1.0, 0.05)


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
            def begin(self, state, sensor):
                pass

            def act(self, z, z_star):
                return np.array([np.nan, 0.0])

            def observe(self, *a):
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
            return episode_trace_csv(res), res.success, res.steps
        assert run() == run()

    def test_trace_columns_hold_one_row_per_step(self, spec):
        sensor = oracle_sensor(spec)
        res = control_loop(UVSController(UVSConfig(), spec),
                           WorldState(position=np.array([0.2, 0.3])), spec, sensor,
                           target_factors(sensor, spec), eps_goal=0.02, max_steps=100)
        assert res.zs.shape == (res.steps, 2) and res.actions.shape == (res.steps, 2)
        rows = episode_trace_csv(res).strip().split("\n")
        assert rows[0] == "step,z0,z1,a0,a1,reward"
        assert len(rows) == res.steps + 1
        assert rows[-1].endswith(f",{res.rewards[-1]:.6g}")


def _one_episode(controller, start, spec, sensor, z_star, eps_goal, max_steps,
                 r_goal=10.0):
    """The loop one episode at a time, one one-row sensor call per reading:
    the reference that lockstepped episodes must match."""
    state = start
    z = sensor(state.position[None])[0]
    errors, rewards, zs, actions = [float(np.linalg.norm(z - z_star))], [], [], []
    success = aborted = False
    if errors[0] < eps_goal:
        success = True
    else:
        controller.begin(state, sensor)
        for _ in range(max_steps):
            action = np.asarray(controller.act(z, z_star), dtype=np.float64)
            if not np.all(np.isfinite(action)):
                aborted = True
                break
            state = step(state, action, spec)
            z_new = sensor(state.position[None])[0]
            controller.observe(z, action, z_new)
            rewards.append(reward(z_new, z_star, eps_goal, r_goal))
            zs.append(z_new)
            actions.append(action)
            z = z_new
            errors.append(float(np.linalg.norm(z - z_star)))
            if errors[-1] < eps_goal:
                success = True
                break
    return dict(success=success, steps=len(rewards), latent_errors=errors,
                rewards=rewards,
                final_task_error=float(np.linalg.norm(state.position
                                                      - np.asarray(spec.target))),
                zs=np.reshape(zs, (-1, len(z_star))),
                actions=np.reshape(actions, (-1, spec.dof)), aborted=aborted)


class NaNAtStep:
    """Wraps a controller and emits a NaN action at step ``k`` (0-based)."""

    def __init__(self, inner, k):
        self.inner, self.k, self.t = inner, k, 0

    def begin(self, state, sensor):
        self.inner.begin(state, sensor)

    def act(self, z, z_star):
        self.t += 1
        if self.t - 1 == self.k:
            return np.array([np.nan, 0.0])
        return self.inner.act(z, z_star)

    def observe(self, z_before, action, z_after):
        self.inner.observe(z_before, action, z_after)


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
        if isinstance(value, np.ndarray):
            assert got[name].shape == value.shape and got[name].tobytes() == value.tobytes()
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
        sensor = oracle_sensor(spec) if sensor_kind == "oracle" else self._sae_sensor()
        z_star = target_factors(sensor, spec)
        eps_goal = calibrate_goal_tolerance(sensor, spec, 0.02)
        policy = Policy.create(k=2, dof=2, seed=1)

        def controllers():
            make = ((lambda: UVSController(UVSConfig(), spec)) if controller_kind == "uvs"
                    else (lambda: GuidedReinforceController(policy, spec, k_gain=0.5)))
            ctrls = [make() for _ in self.STARTS]
            ctrls[2] = NaNAtStep(ctrls[2], k=3)
            return ctrls

        got = run_episodes(controllers(), self.STARTS, spec, sensor, z_star,
                           eps_goal, max_steps=40)
        singles = [control_loop(c, WorldState(position=p), spec, sensor, z_star,
                                eps_goal, max_steps=40)
                   for c, p in zip(controllers(), self.STARTS)]
        reference = [_one_episode(c, WorldState(position=p), spec, sensor, z_star,
                                  eps_goal, max_steps=40)
                     for c, p in zip(controllers(), self.STARTS)]
        assert [r["aborted"] for r in reference] == [False, False, True, False, False]
        assert reference[1]["success"] and reference[1]["steps"] == 0
        assert len({r["steps"] for r in reference}) > 2
        for lockstep, single, ref in zip(got, singles, reference):
            _assert_same_episode(_as_fields(lockstep), ref)
            _assert_same_episode(_as_fields(single), ref)

    def test_one_stacked_sensor_call_per_step(self, spec):
        sensor = CountingSensor(oracle_sensor(spec))
        z_star = target_factors(oracle_sensor(spec), spec)
        results = run_episodes([UVSController(UVSConfig(), spec) for _ in self.STARTS],
                               self.STARTS, spec, sensor, z_star, eps_goal=0.02,
                               max_steps=60)
        begun = [not (r.success and r.steps == 0) for r in results]
        assert begun.count(False) == 1 and all(r.success for r in results)
        assert sensor.rows == sum(1 + 2 * spec.dof * b + r.steps
                                  for b, r in zip(begun, results))
        assert sensor.calls == 1 + sum(begun) + max(r.steps for r in results)
        assert sensor.calls <= 60 + 1 + len(self.STARTS)

    def test_rejects_a_controller_count_that_differs_from_the_starts(self, spec):
        sensor = oracle_sensor(spec)
        with pytest.raises(ValueError, match="controllers"):
            run_episodes([UVSController(UVSConfig(), spec)], self.STARTS, spec, sensor,
                         target_factors(sensor, spec), eps_goal=0.02, max_steps=5)


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
