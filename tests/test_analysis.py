"""Factor extraction, projection, field-map metrics, embodiment comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentservo.analysis import (
    FactorSet,
    LatentFieldMap,
    alpha_score,
    build_field_map,
    build_task_map,
    embodiment_compare,
    extract_time_varying,
    injectivity_metric,
    monotonicity_metric,
    project,
    resample_trajectory,
    select_control_factors,
    select_sae_pair,
    shuffle_demo_frames,
    suggest_collision_eps,
    variance_smoothness,
)
from latentservo.analysis.taskmap import TaskMap
from latentservo.control import model_sensor, oracle_sensor
from latentservo.plain import plain
from latentservo.representations import (
    EncoderSpec,
    Method,
    ModelWeights,
    init_params,
)
from latentservo.toyenv import (
    Pattern,
    SpriteKind,
    TaskSpec,
    generate_demo,
    grid_positions,
)


def fake_map(values):
    values = np.asarray(values, dtype=np.float32)
    return TaskMap(values=values, sigmas=None)


def synthetic_ramp_map(rng, T=40, dims=12, ramp_dims=(0, 3), noise=0.01):
    vals = rng.normal(0.0, noise, size=(T, dims))
    for d in ramp_dims:
        vals[:, d] = np.linspace(0.0, 1.0, T)
    return fake_map(vals)


class TestExtractTimeVarying:
    def test_synthetic_ramps_recovered(self):
        rng = np.random.default_rng(42)
        fs = extract_time_varying([synthetic_ramp_map(rng)], tau=0.2)
        # brute-force oracle: stds computed directly, rule applied by hand
        vals = synthetic_ramp_map(np.random.default_rng(42)).values
        stds = vals.std(axis=0)
        expected = tuple(np.flatnonzero(stds >= 0.2 * stds.max()))
        assert fs.indices == expected == (0, 3)

    def test_hundred_seeded_instances_zero_failures(self):
        # sigma ratio 100:1 between ramps and noise dims
        for seed in range(100):
            rng = np.random.default_rng(seed)
            fs = extract_time_varying([synthetic_ramp_map(rng)], tau=0.2)
            assert fs.indices == (0, 3), f"failed at seed {seed}"

    def test_all_constant_yields_empty_with_warning(self):
        fs = extract_time_varying([fake_map(np.ones((10, 5)))], tau=0.2)
        assert fs.indices == ()
        assert fs.all_constant

    def test_time_reversal_invariance(self):
        rng = np.random.default_rng(7)
        m = synthetic_ramp_map(rng)
        fs_fwd = extract_time_varying([m], tau=0.2)
        fs_rev = extract_time_varying([fake_map(m.values[::-1])], tau=0.2)
        assert fs_fwd.indices == fs_rev.indices
        np.testing.assert_allclose(fs_fwd.spreads, fs_rev.spreads, rtol=1e-6)

    def test_multiple_maps_share_dims(self):
        with pytest.raises(ValueError, match="disagree"):
            extract_time_varying([fake_map(np.ones((5, 3))), fake_map(np.ones((5, 4)))])

    def test_tau_bounds(self):
        with pytest.raises(ValueError, match="tau"):
            extract_time_varying([fake_map(np.ones((5, 3)))], tau=0.0)


class TestProjection:
    @given(st.integers(2, 30), st.data())
    @settings(max_examples=40, deadline=None)
    def test_projection_is_exact_index_restriction(self, dim, data):
        idx = sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim)))
        fs = FactorSet(indices=tuple(idx), tau=0.2, spreads=np.ones(dim))
        vec = np.arange(dim, dtype=np.float32) * 1.5
        out = project(vec, fs)
        np.testing.assert_array_equal(out, vec[idx])

    def test_idempotent_on_projected_vectors(self):
        fs = FactorSet(indices=(1, 4), tau=0.2, spreads=np.ones(6))
        vec = np.arange(6, dtype=np.float64)
        once = project(vec, fs)
        twice = project(once, fs)
        np.testing.assert_array_equal(once, twice)

    def test_wrong_length_rejected(self):
        fs = FactorSet(indices=(0,), tau=0.2, spreads=np.ones(6))
        with pytest.raises(ValueError, match="project"):
            project(np.zeros(4), fs)

    def test_row_stack_projection(self):
        fs = FactorSet(indices=(0, 2), tau=0.2, spreads=np.ones(3))
        rows = np.arange(12, dtype=np.float64).reshape(4, 3)
        np.testing.assert_array_equal(project(rows, fs), rows[:, [0, 2]])


class TestSaePairSelection:
    def test_first_complete_pair(self):
        fs = FactorSet(indices=(2, 3, 6, 7), tau=0.2, spreads=np.ones(8))
        assert select_sae_pair(fs) == (2, 3)

    def test_single_pair(self):
        fs = FactorSet(indices=(0, 1), tau=0.2, spreads=np.ones(4))
        assert select_sae_pair(fs) == (0, 1)

    def test_misaligned_indices_error(self):
        fs = FactorSet(indices=(1, 2), tau=0.2, spreads=np.ones(4))
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            select_sae_pair(fs)

    def test_control_selection_sae_vs_dense(self):
        spreads = np.array([0.1, 0.5, 0.9, 0.2, 0.6, 0.05])
        fs = FactorSet(indices=(1, 2, 4), tau=0.2, spreads=spreads)
        dense = select_control_factors(fs, dof=2, method=Method.BVAE)
        assert dense.indices == (2, 4)  # two most-varying, sorted
        sae_fs = FactorSet(indices=(2, 3, 4, 5), tau=0.2, spreads=np.ones(6))
        assert select_control_factors(sae_fs, 2, Method.SAE).indices == (2, 3)

    def test_control_selection_needs_enough_factors(self):
        fs = FactorSet(indices=(1,), tau=0.2, spreads=np.ones(4))
        with pytest.raises(ValueError, match="at least 2"):
            select_control_factors(fs, dof=2, method=Method.BVAE)


class TestAlphaScore:
    def test_constant_variance_scores_one(self):
        assert variance_smoothness([0.7, 0.7, 0.7, 0.7]) == pytest.approx(1.0)

    def test_single_spike_scores_one_third(self):
        assert variance_smoothness([0.0, 1.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            variance_smoothness([1.0, 2.0])

    def test_model_score_in_range(self):
        spec = EncoderSpec(method=Method.VAE, image_size=16, latent_dim=6,
                           hidden=(16, 8), seed=2)
        model = ModelWeights(spec=spec, params=init_params(spec))
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        demo = generate_demo(task, Pattern.STRAIGHT, (0.1, 0.1), 8)
        s = alpha_score(build_task_map(model, demo))
        assert 0.0 < s <= 1.0

    def test_requires_variance_method(self):
        spec = EncoderSpec(method=Method.AE, image_size=16, latent_dim=6, hidden=(16, 8))
        model = ModelWeights(spec=spec, params=init_params(spec))
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        demo = generate_demo(task, Pattern.STRAIGHT, (0.1, 0.1), 8)
        with pytest.raises(ValueError, match="variance"):
            alpha_score(build_task_map(model, demo))

    def test_requires_three_rows(self):
        rows = np.ones((2, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="at least 3"):
            alpha_score(TaskMap(values=rows, sigmas=rows))


def oracle_factors():
    return FactorSet(indices=(0, 1), tau=0.2, spreads=np.ones(2))


class TestFieldMap:
    def test_oracle_identity_equals_grid(self):
        fm = build_field_map(oracle_sensor(TaskSpec()), oracle_factors(), 8)
        np.testing.assert_array_equal(fm.values, fm.positions)

    def test_monotonicity_of_identity_is_exactly_one(self):
        fm = build_field_map(oracle_sensor(TaskSpec()), oracle_factors(), 8)
        rep = monotonicity_metric(fm)
        assert rep.x == 1.0 and rep.y == 1.0

    def test_injectivity_of_identity_is_exactly_zero(self):
        fm = build_field_map(oracle_sensor(TaskSpec()), oracle_factors(), 16)
        assert injectivity_metric(fm, eps=0.02) == 0.0

    def test_constant_representation_collapses(self):
        n = 24
        pos = grid_positions(n)
        vals = np.zeros((n * n, 2), dtype=np.float32)
        fm = LatentFieldMap(grid_n=n, positions=pos, values=vals,
                            factors=oracle_factors())
        assert injectivity_metric(fm, eps=0.05) > 0.9

    @pytest.mark.parametrize("grid_n", [12, 33])
    @pytest.mark.parametrize("shape", ["monotone", "folded", "noisy", "constant",
                                       "one_factor", "three_factors", "ties_on_f0"])
    @pytest.mark.parametrize("fraction", [0.01, 0.04, 0.2])
    def test_injectivity_equals_an_all_pairs_count(self, grid_n, shape, fraction):
        pos = grid_positions(grid_n)
        x, y = pos[:, 0], pos[:, 1]
        rng = np.random.default_rng(grid_n)
        vals = {
            "monotone": np.column_stack([x, y]),
            "folded": np.column_stack([np.abs(x - 0.5), np.abs(y - 0.5)]),
            "noisy": np.column_stack([x, y]) + rng.normal(0.0, 0.05, pos.shape),
            "constant": np.zeros_like(pos),
            "one_factor": np.abs(x - 0.5)[:, None],
            "three_factors": rng.random((len(pos), 3)),
            "ties_on_f0": np.column_stack([np.round(4 * x) / 4, np.sin(3 * y)]),
        }[shape].astype(np.float32)
        k = vals.shape[1]
        fm = LatentFieldMap(grid_n=grid_n, positions=pos, values=vals,
                            factors=FactorSet(indices=tuple(range(k)), tau=0.2,
                                              spreads=np.ones(k)))
        eps = suggest_collision_eps(fm, fraction)
        # the reference: every pair, with the metric's distances and bounds
        z = vals.astype(np.float64)
        i, j = np.triu_indices(len(pos), k=1)
        collide = ((np.linalg.norm(z[i] - z[j], axis=1) < eps)
                   & (np.linalg.norm(pos[i] - pos[j], axis=1) > 4.0 * fm.spacing))
        assert injectivity_metric(fm, eps) == np.count_nonzero(collide) / i.size

    def test_random_factor_has_low_rank_correlation(self):
        n = 64
        rng = np.random.default_rng(123)
        vals = rng.standard_normal((n * n, 1)).astype(np.float32)
        fm = LatentFieldMap(grid_n=n, positions=grid_positions(n), values=vals,
                            factors=FactorSet(indices=(0,), tau=0.2, spreads=np.ones(1)))
        rep = monotonicity_metric(fm)
        assert rep.x < 0.2 and rep.y < 0.2

    def test_constant_factor_rho_is_zero(self):
        n = 8
        vals = np.ones((n * n, 1), dtype=np.float32)
        fm = LatentFieldMap(grid_n=n, positions=grid_positions(n), values=vals,
                            factors=FactorSet(indices=(0,), tau=0.2, spreads=np.ones(1)))
        rep = monotonicity_metric(fm)
        assert rep.x == 0.0 and rep.y == 0.0

    def test_model_field_map_rows_equal_one_row_readings(self):
        spec = EncoderSpec(method=Method.SAE, image_size=16, sae_channels=2,
                           sae_conv1_channels=3, sae_decoder_hidden=8, seed=4)
        model = ModelWeights(spec=spec, params=init_params(spec))
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        fs = FactorSet(indices=(0, 1, 2, 3), tau=0.2, spreads=np.ones(4))
        sensor = model_sensor(model, fs, task)
        fm = build_field_map(sensor, fs, 8)
        for p, row in zip(fm.positions, fm.values):
            assert row.tobytes() == sensor(p[None])[0].tobytes()

    def test_empty_factors_rejected(self):
        fs = FactorSet(indices=(), tau=0.2, spreads=np.zeros(2), all_constant=True)
        with pytest.raises(ValueError, match="non-empty"):
            build_field_map(oracle_sensor(TaskSpec()), fs, 4)

    def test_collision_eps_scales_with_range(self):
        fm = build_field_map(oracle_sensor(TaskSpec()), oracle_factors(), 8)
        eps = suggest_collision_eps(fm, fraction=0.02)
        assert eps == pytest.approx(0.02 * np.sqrt(2.0), rel=1e-6)


class TestBuildTaskMap:
    def _model(self, latent=6):
        spec = EncoderSpec(method=Method.AE, image_size=16, latent_dim=latent,
                           hidden=(16, 8), seed=5)
        return ModelWeights(spec=spec, params=init_params(spec))

    def test_constant_demo_gives_identical_rows(self):
        from latentservo.toyenv import DemoSequence, render
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        pos = np.array([0.4, 0.4])
        frame = render(pos[None], task)[0]
        demo = DemoSequence(frames=np.stack([frame] * 5),
                            positions=np.stack([pos] * 5),
                            spec=task, pattern=Pattern.STRAIGHT)
        tm = build_task_map(self._model(), demo)
        for row in tm.values[1:]:
            np.testing.assert_array_equal(row, tm.values[0])

    def test_shape_is_frames_by_latent(self):
        task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
        demo = generate_demo(task, Pattern.STRAIGHT, (0.1, 0.1), 16)
        tm = build_task_map(self._model(), demo)
        assert tm.values.shape == (17, 6)


@pytest.fixture(scope="module")
def embodiment_setup():
    task = TaskSpec(image_size=16, sprite_radius=2.0, cross_arm=1.5)
    starts = [(0.1, 0.1), (0.9, 0.2)]
    teacher = [generate_demo(task, Pattern.STRAIGHT, s, 10) for s in starts]
    executor_spec = task.with_sprite(SpriteKind.EXECUTOR)
    executor = [generate_demo(executor_spec, Pattern.STRAIGHT, s, 10) for s in starts]
    spec = EncoderSpec(method=Method.AE, image_size=16, latent_dim=8,
                       hidden=(24, 12), seed=6)
    model = ModelWeights(spec=spec, params=init_params(spec))
    return model, teacher, executor


class TestEmbodiment:
    def test_identity_control_case(self, embodiment_setup):
        model, teacher, _ = embodiment_setup
        rep = embodiment_compare(model, teacher, teacher)
        assert rep.jaccard == 1.0
        assert rep.mean_correlation == pytest.approx(1.0)
        assert rep.final_latent_distance == 0.0
        assert rep.verdict == "STRONG"

    def test_shuffled_frames_negative_control(self, embodiment_setup):
        model, teacher, _ = embodiment_setup
        rng = np.random.default_rng(17)
        shuffled = [shuffle_demo_frames(d, rng) for d in teacher]
        rep = embodiment_compare(model, teacher, shuffled)
        assert rep.jaccard == 1.0  # std is order-free, same factor sets
        assert abs(rep.mean_correlation) < 0.3

    def test_sprite_swap_reports_values(self, embodiment_setup):
        model, teacher, executor = embodiment_setup
        rep = embodiment_compare(model, teacher, executor)
        assert 0.0 <= rep.jaccard <= 1.0
        for c in rep.correlations.values():
            assert -1.0 <= c <= 1.0
        d = plain(rep)
        assert set(d) >= {"jaccard", "correlations", "final_latent_distance", "verdict"}

    def test_resample_endpoints(self):
        out = resample_trajectory(np.array([1.0, 3.0]), points=5)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.0, 2.5, 3.0])
