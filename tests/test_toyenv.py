"""Rendering, stepping, demo patterns, and PGM persistence."""

import numpy as np
import pytest

from latentservo.toyenv import (
    Pattern,
    SpriteKind,
    TaskSpec,
    WorldState,
    generate_demo,
    grid_positions,
    load_demo,
    random_start,
    render,
    save_demo,
    step,
    to_pixels,
)


@pytest.fixture
def spec():
    return TaskSpec()


class TestSpecValidation:
    def test_target_outside_workspace(self):
        with pytest.raises(ValueError, match="outside workspace"):
            TaskSpec(target=(1.2, 0.5))

    def test_image_too_small(self):
        with pytest.raises(ValueError, match="image_size"):
            TaskSpec(image_size=8)

    def test_sprite_must_fit(self):
        with pytest.raises(ValueError, match="leave the frame"):
            TaskSpec(image_size=16, sprite_radius=8.0)

    def test_bad_dof(self):
        with pytest.raises(ValueError, match="dof"):
            TaskSpec(dof=3)


class TestRender:
    def test_centroid_at_image_center(self):
        # target pushed to a corner so the sprite centroid is unpolluted
        spec = TaskSpec(target=(1.0, 1.0))
        img = render(WorldState(position=np.array([0.5, 0.5])), spec).astype(np.float64)
        sub = img[:26, :26]  # sprite region only
        cols, rows = np.meshgrid(np.arange(26), np.arange(26))
        cx = (cols * sub).sum() / sub.sum()
        cy = (rows * sub).sum() / sub.sum()
        ex, ey = to_pixels([0.5, 0.5], spec)
        assert abs(cx - ex) <= 0.5
        assert abs(cy - ey) <= 0.5

    def test_bit_identical_rerender(self, spec):
        s = WorldState(position=np.array([0.31, 0.62]))
        assert render(s, spec).tobytes() == render(s, spec).tobytes()

    def test_intensities_in_unit_range(self, spec):
        img = render(WorldState(position=np.array([0.9, 0.1])), spec)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_sprite_swap_local_to_bounding_box(self, spec):
        pos = np.array([0.3, 0.4])
        a = render(WorldState(position=pos), spec.with_sprite(SpriteKind.TEACHER))
        b = render(WorldState(position=pos), spec.with_sprite(SpriteKind.EXECUTOR))
        cx, cy = to_pixels(pos, spec)
        r = spec.sprite_radius + 1.0
        diff = np.argwhere(a != b)
        assert diff.size > 0  # sprites do differ
        for row, col in diff:
            assert abs(col - cx) <= r + 0.5
            assert abs(row - cy) <= r + 0.5

    def test_quantized_to_8bit_levels(self, spec):
        img = render(WorldState(position=np.array([0.47, 0.53])), spec)
        scaled = img * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-4)


class TestStep:
    def test_plain_move(self, spec):
        s = step(WorldState(position=np.array([0.5, 0.5])), [0.02, 0.0], spec)
        np.testing.assert_allclose(s.position, [0.52, 0.5])
        assert s.step_count == 1

    def test_boundary_clamp(self, spec):
        s = step(WorldState(position=np.array([0.99, 0.5])), [0.05, 0.0], spec)
        np.testing.assert_allclose(s.position, [1.0, 0.5])

    def test_zero_action_identity(self, spec):
        s0 = WorldState(position=np.array([0.4, 0.6]))
        s1 = step(s0, [0.0, 0.0], spec)
        np.testing.assert_array_equal(s1.position, s0.position)

    def test_wrong_action_dim(self, spec):
        with pytest.raises(ValueError, match="dim"):
            step(WorldState(), [0.01], spec)

    def test_oversized_action_clipped_to_limit(self, spec):
        s0 = WorldState(position=np.array([0.5, 0.5]))
        s1 = step(s0, [1.0, 0.0], spec)
        assert np.linalg.norm(s1.position - s0.position) <= spec.a_max + 1e-12

    def test_contractive_at_bounds(self, spec):
        rng = np.random.default_rng(5)
        s = WorldState(position=np.array([0.98, 0.01]))
        for _ in range(50):
            s = step(s, rng.uniform(-0.05, 0.05, 2), spec)
            assert np.all(s.position >= 0.0) and np.all(s.position <= 1.0)

    def test_one_dof_moves_x_only(self):
        spec = TaskSpec(dof=1)
        s = step(WorldState(position=np.array([0.5, 0.3])), [0.02], spec)
        np.testing.assert_allclose(s.position, [0.52, 0.3])


class TestDemos:
    def test_straight_positions_affine(self, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.1), 16)
        assert len(demo) == 17
        ts = np.linspace(0.0, 1.0, 17)[:, None]
        expected = np.array([0.1, 0.1]) * (1 - ts) + np.array(spec.target) * ts
        assert np.abs(demo.positions - expected).max() < 1e-9

    def test_same_seed_identical(self, spec):
        a = generate_demo(spec, Pattern.ARC, (0.2, 0.1), 12, seed=9)
        b = generate_demo(spec, Pattern.ARC, (0.2, 0.1), 12, seed=9)
        assert a.frames.tobytes() == b.frames.tobytes()
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_arc_hits_endpoints_and_bulges(self, spec):
        demo = generate_demo(spec, Pattern.ARC, (0.1, 0.1), 16, seed=1)
        np.testing.assert_allclose(demo.positions[0], [0.1, 0.1])
        np.testing.assert_allclose(demo.positions[-1], spec.target)
        chord = np.array(spec.target) - np.array([0.1, 0.1])
        mid = demo.positions[8] - (np.array([0.1, 0.1]) + chord / 2)
        assert np.linalg.norm(mid) > 0.05  # actually bulges off the chord

    def test_degenerate_start_is_single_frame(self, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, spec.target, 16)
        assert len(demo) == 1

    def test_rerender_reproduces_frames(self, spec):
        demo = generate_demo(spec, Pattern.ARC, (0.15, 0.7), 10, seed=2)
        for pos, frame in zip(demo.positions, demo.frames):
            again = render(WorldState(position=pos), spec)
            assert again.tobytes() == frame.tobytes()

    def test_arc_needs_two_dof(self):
        with pytest.raises(ValueError, match="ARC"):
            generate_demo(TaskSpec(dof=1), Pattern.ARC, (0.1, 0.7), 8)

    def test_start_outside_workspace(self, spec):
        with pytest.raises(ValueError, match="outside"):
            generate_demo(spec, Pattern.STRAIGHT, (1.4, 0.0), 8)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 8)
        save_demo(demo, tmp_path / "d0")
        back = load_demo(tmp_path / "d0")
        assert back.frames.tobytes() == demo.frames.tobytes()
        np.testing.assert_array_equal(back.positions, demo.positions)
        assert back.pattern == demo.pattern
        assert back.spec == demo.spec

    def test_loaded_frames_match_rerender(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.ARC, (0.8, 0.2), 6, seed=4)
        save_demo(demo, tmp_path / "d1")
        back = load_demo(tmp_path / "d1")
        for pos, frame in zip(back.positions, back.frames):
            assert render(WorldState(position=pos), back.spec).tobytes() == frame.tobytes()

    def test_truncated_frame_rejected(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4)
        save_demo(demo, tmp_path / "d2")
        f = tmp_path / "d2" / "frame_0002.pgm"
        f.write_bytes(f.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_demo(tmp_path / "d2")


class TestSampling:
    def test_grid_counts(self):
        assert grid_positions(2).shape == (4, 2)
        assert grid_positions(64).shape == (4096, 2)

    def test_full_scale_grid_count(self):
        # the full-scale sweep is 580 x 580 = 336,400 sampled states
        assert grid_positions(580).shape == (336400, 2)

    def test_corners_present(self):
        pos = grid_positions(2)
        expected = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        assert {tuple(p) for p in pos} == expected

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid_n"):
            grid_positions(1)


def test_random_start_clears_target():
    spec = TaskSpec()
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_start(spec, rng)
        assert np.linalg.norm(s - np.array(spec.target)) >= 0.15
        assert np.all(s >= 0.08) and np.all(s <= 0.92)
