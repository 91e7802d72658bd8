"""Servo algebra, guidance, Gaussian policy, and the closed loop on oracles."""

import math

import numpy as np
import pytest

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
    oracle_sensor,
    reinforce_update,
    reward,
    rollout,
    sample_action,
    target_factors,
    uvs_init_jacobian,
    uvs_step,
)
from latentservo.toyenv import TaskSpec, WorldState, random_start


@pytest.fixture
def spec():
    return TaskSpec()


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
        sensor = lambda state: np.zeros(2)
        jac = uvs_init_jacobian(WorldState(), spec, sensor, eps_explore=0.02)
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
                          rewards=rng.uniform(-1, 0, 5), reached_goal=False)
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
                              rewards=rng.uniform(-1, 0, 6), reached_goal=False)
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
                          rewards=rng.uniform(-1, 0, 6), reached_goal=False)
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

    def test_rollout_records_consistent_shapes(self, spec):
        sensor = oracle_sensor(spec)
        z_star = target_factors(sensor, spec)
        policy = Policy.create(k=2, dof=2, seed=0)
        cfg = ReinforceConfig(horizon=15, seed=2)
        ep = rollout(policy, spec, sensor, z_star, np.array([0.2, 0.2]),
                     cfg, eps_goal=0.02, rng=np.random.default_rng(2))
        t = len(ep.rewards)
        assert ep.zs.shape == (t, 2)
        assert ep.raw_actions.shape == (t, 2)
        assert ep.guidance.shape == (t, 2)

    def test_factor_action_dof_mismatch_rejected(self, spec):
        policy = Policy.create(k=3, dof=3, seed=0)
        with pytest.raises(ValueError, match="dof"):
            GuidedReinforceController(policy, spec, k_gain=0.5)
