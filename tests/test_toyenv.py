"""Rendering, stepping, demo patterns, and PGM persistence."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latentservo.toyenv import (
    Pattern,
    SpriteKind,
    TaskSpec,
    WorldState,
    clip_action,
    generate_demo,
    grid_positions,
    load_demo,
    random_start,
    render,
    save_demo,
    step,
    step_positions,
    to_pixels,
)
from latentservo.plain import plain


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


def _full_frame_render(positions, spec):
    """Coverage, max-blend and quantization over every pixel: the reference."""
    pos = np.clip(np.asarray(positions, dtype=np.float64), 0.0, 1.0)
    idx = np.arange(spec.image_size, dtype=np.float64)
    cols, rows = np.meshgrid(idx, idx)

    def box(dx, dy, half_w, half_h):
        return (np.clip(half_w - np.abs(dx) + 0.5, 0.0, 1.0)
                * np.clip(half_h - np.abs(dy) + 0.5, 0.0, 1.0))

    cx, cy = to_pixels(pos[:, None, None, :], spec)
    if spec.sprite is SpriteKind.TEACHER:
        d = np.hypot(cols - cx, rows - cy)
        sprite = np.clip(spec.sprite_radius - d + 0.5, 0.0, 1.0)
    else:
        half = spec.sprite_radius * math.sqrt(math.pi) / 2.0
        sprite = box(cols - cx, rows - cy, half, half)
    tx, ty = to_pixels(spec.target, spec)
    arm = spec.cross_arm
    target = np.maximum(box(cols - tx, rows - ty, arm, 0.5),
                        box(cols - tx, rows - ty, 0.5, arm)) * spec.target_intensity
    return (np.round(np.maximum(target, sprite) * 255.0) / 255.0).astype(np.float32)


class TestRenderMatchesFullFrame:
    EDGE_ROWS = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-0.3, 0.5],
                 [1.4, -2.0], [0.5, 1.2], [np.inf, -np.inf], [0.5, 0.5]]

    @pytest.mark.parametrize("sprite", list(SpriteKind))
    @pytest.mark.parametrize("size", [16, 17, 31, 32, 47, 64])
    def test_bytes_equal_the_full_frame_render(self, sprite, size):
        rng = np.random.default_rng(size)
        positions = np.concatenate([self.EDGE_ROWS, rng.uniform(-0.2, 1.2, (191, 2))])
        for radius, target in itertools.product([0.5, 1.0, 2.25, 3.0, 4.6, 7.0],
                                                [(0.0, 0.0), (0.5, 0.5)]):
            if 2 * (radius + 2.0) >= size - 1:      # TaskSpec refuses it
                continue
            spec = TaskSpec(image_size=size, sprite_radius=radius, sprite=sprite,
                            target=target)
            want = _full_frame_render(positions, spec)
            stacks = [slice(i, i + 1) for i in range(len(self.EDGE_ROWS))]
            for rows in stacks + [slice(0, n) for n in (2, 17, 200)]:
                got = render(positions[rows], spec)
                assert got.dtype == want.dtype and got.shape == want[rows].shape
                assert got.tobytes() == want[rows].tobytes()

    def test_nan_position_has_no_frame(self, spec):
        with pytest.raises(ValueError, match="NaN position"):
            render(np.array([[0.5, 0.5], [np.nan, 0.2]]), spec)


class TestRender:
    def test_centroid_at_image_center(self):
        # target pushed to a corner so the sprite centroid is unpolluted
        spec = TaskSpec(target=(1.0, 1.0))
        img = render(np.array([[0.5, 0.5]]), spec)[0].astype(np.float64)
        sub = img[:26, :26]  # sprite region only
        cols, rows = np.meshgrid(np.arange(26), np.arange(26))
        cx = (cols * sub).sum() / sub.sum()
        cy = (rows * sub).sum() / sub.sum()
        ex, ey = to_pixels([0.5, 0.5], spec)
        assert abs(cx - ex) <= 0.5
        assert abs(cy - ey) <= 0.5

    def test_bit_identical_rerender(self, spec):
        p = np.array([[0.31, 0.62]])
        assert render(p, spec).tobytes() == render(p, spec).tobytes()

    def test_intensities_in_unit_range(self, spec):
        img = render(np.array([[0.9, 0.1]]), spec)[0]
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_sprite_swap_local_to_bounding_box(self, spec):
        pos = np.array([0.3, 0.4])
        a = render(pos[None], spec.with_sprite(SpriteKind.TEACHER))[0]
        b = render(pos[None], spec.with_sprite(SpriteKind.EXECUTOR))[0]
        cx, cy = to_pixels(pos, spec)
        r = spec.sprite_radius + 1.0
        diff = np.argwhere(a != b)
        assert diff.size > 0  # sprites do differ
        for row, col in diff:
            assert abs(col - cx) <= r + 0.5
            assert abs(row - cy) <= r + 0.5

    def test_quantized_to_8bit_levels(self, spec):
        img = render(np.array([[0.47, 0.53]]), spec)[0]
        scaled = img * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-4)

    @pytest.mark.parametrize("sprite", list(SpriteKind))
    def test_stack_rows_match_one_row_renders(self, sprite):
        spec = TaskSpec(sprite=sprite)
        rng = np.random.default_rng(8)
        positions = rng.uniform(-0.1, 1.1, size=(40, 2))  # some outside the workspace
        frames = render(positions, spec)
        assert frames.shape == (40, 32, 32) and frames.dtype == np.float32
        for i in range(len(positions)):
            assert frames[i].tobytes() == render(positions[i:i + 1], spec)[0].tobytes()

    def test_clips_like_world_state(self, spec):
        outside = np.array([1.3, -0.2])
        clipped = WorldState(position=outside).position
        assert (render(outside[None], spec).tobytes()
                == render(clipped[None], spec).tobytes())

    def test_world_state_is_a_one_row_stack(self, spec):
        state = WorldState(position=np.array([0.31, 0.62]))
        assert render(state, spec).tobytes() == render(state.position[None], spec).tobytes()

    @pytest.mark.parametrize("shape", [(2,), (4, 3), (1, 1, 2)])
    def test_rejects_anything_but_a_position_stack(self, spec, shape):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            render(np.full(shape, 0.5), spec)


class TestStep:
    def test_plain_move(self, spec):
        s = step(WorldState(position=np.array([0.5, 0.5])), [0.02, 0.0], spec)
        np.testing.assert_allclose(s.position, [0.52, 0.5])

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


def _norm_clip(a, a_max):
    """The action clip through ``np.linalg.norm``: the reference."""
    norm = float(np.linalg.norm(a))
    return a * (a_max / norm) if norm > a_max else a


class TestClipAction:
    def test_matches_the_linalg_norm_form(self):
        rng = np.random.default_rng(21)
        for _ in range(3000):
            a = rng.standard_normal(rng.integers(1, 4)) * 10.0 ** rng.integers(-4, 2)
            a_max = float(rng.choice([0.05, 0.5, 1.0]))
            assert clip_action(a, a_max).tobytes() == _norm_clip(a, a_max).tobytes()

    def test_float32_input_keeps_its_float32_norm(self):
        rng = np.random.default_rng(22)
        differs = 0
        for _ in range(3000):
            a = (rng.standard_normal(2) * 0.1).astype(np.float32)
            norm32 = float(np.linalg.norm(a))
            differs += norm32 != float(np.linalg.norm(a.astype(np.float64)))
            for a_max in (0.05, norm32):   # at its own float32 norm: not clipped
                got, want = clip_action(a, a_max), _norm_clip(a, a_max)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert differs > 100   # the two norms do differ on these inputs

    def test_zero_vector_passes_unchanged(self):
        a = np.zeros(2)
        assert clip_action(a, 0.05) is a

    @pytest.mark.parametrize("a, a_max", [([0.05, 0.0], 0.05), ([0.0, -0.05], 0.05),
                                          ([3.0, 4.0], 5.0), ([-0.5], 0.5)])
    def test_norm_exactly_at_the_limit_passes_unchanged(self, a, a_max):
        a = np.asarray(a, dtype=np.float64)
        assert float(np.linalg.norm(a)) == a_max
        assert clip_action(a, a_max) is a


def _one_row_step(position, action, spec):
    """``step`` on one row, through ``np.clip`` and ``np.linalg.norm``: the
    reference each row of a stacked step must match."""
    a = _norm_clip(np.asarray(action, dtype=np.float64), spec.a_max)
    delta = np.array([a[0], 0.0]) if spec.dof == 1 else a
    return np.clip(position + delta, 0.0, 1.0)


# Rows of one to three components whose norms span the clip limits below.
_ACTION_STACKS = st.integers(1, 3).flatmap(lambda d: hnp.arrays(
    np.float64, st.tuples(st.integers(1, 12), st.just(d)),
    elements=st.floats(-2.0, 2.0, allow_subnormal=True)))


class TestStackedClipAndStep:
    """A stacked ``clip_action`` or ``step_positions`` gives each row the bits
    of the one-row form."""

    @given(_ACTION_STACKS, st.sampled_from([0.05, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_clip_rows_match_the_one_row_clip(self, actions, a_max):
        got = clip_action(actions, a_max)
        for row, a in zip(got, actions):
            assert row.tobytes() == _norm_clip(a, a_max).tobytes()

    def test_edge_rows_in_one_stack(self):
        # norms 0, exactly a_max, above it, and NaN, side by side
        stack = np.array([[0.0, 0.0], [-0.0, 0.0], [0.05, 0.0], [0.0, -0.05],
                          [0.03, 0.04], [3.0, 4.0], [np.nan, 0.0], [1e-320, 0.0],
                          [0.0300001, 0.04]])
        assert [float(np.linalg.norm(a)) == 0.05 for a in stack[2:5]] == [True] * 3
        got = clip_action(stack, 0.05)
        for row, a in zip(got, stack):
            assert row.tobytes() == _norm_clip(a, 0.05).tobytes()

    def test_a_stack_within_the_limit_is_returned_itself(self):
        within = np.array([[0.05, 0.0], [0.0, 0.0], [0.01, 0.02]])
        assert clip_action(within, 0.05) is within
        assert clip_action(np.empty((0, 2)), 0.05).shape == (0, 2)

    @pytest.mark.parametrize("dof", [1, 2])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_step_rows_match_the_one_row_step(self, dof, data):
        spec = TaskSpec(dof=dof)
        n = data.draw(st.integers(1, 10))
        positions = data.draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(0.0, 1.0)))
        actions = data.draw(hnp.arrays(np.float64, (n, dof),
                                       elements=st.floats(-0.2, 0.2)))
        got = step_positions(positions, actions, spec)
        for row, p, a in zip(got, positions, actions):
            assert row.tobytes() == _one_row_step(p, a, spec).tobytes()
            one = step(WorldState(position=p), a, spec).position
            assert one.tobytes() == row.tobytes()

    def test_step_rejects_actions_of_another_shape(self, spec):
        with pytest.raises(ValueError, match="actions must have shape"):
            step_positions(np.full((3, 2), 0.5), np.zeros((3, 1)), spec)
        with pytest.raises(ValueError, match="actions must have shape"):
            step_positions(np.full((3, 2), 0.5), np.zeros((2, 2)), spec)


class TestWorkspaceClamp:
    EDGES = [-0.0, 0.0, 1.0, 0.5, -1e-300, 5e-324, np.nextafter(1.0, 2.0),
             -0.5, 1.5, np.inf, -np.inf, np.nan]

    def test_world_state_matches_np_clip(self):
        for a, b in itertools.product(self.EDGES, self.EDGES):
            p = np.array([a, b])
            assert WorldState(position=p).position.tobytes() == np.clip(p, 0.0, 1.0).tobytes()

    def test_step_matches_np_clip(self, spec):
        rng = np.random.default_rng(23)
        starts = [[0.0, 1.0], [1.0, 0.0], [0.01, 0.99], [0.5, 0.5], [-0.0, 0.0]]
        actions = [[-0.05, 0.05], [0.05, -0.05], [0.2, 0.0], [0.0, 0.0], [-0.0, -0.0],
                   [np.nan, 0.0], [np.inf, 0.0]] + list(rng.uniform(-0.1, 0.1, (20, 2)))
        for start, action in itertools.product(starts, actions):
            state = WorldState(position=np.array(start))
            a = np.asarray(action, dtype=np.float64)
            with np.errstate(invalid="ignore"):    # the infinite action scales to NaN
                want = np.clip(state.position + _norm_clip(a, spec.a_max), 0.0, 1.0)
                got = step(state, a, spec).position
            assert got.tobytes() == want.tobytes()


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
            again = render(pos[None], spec)[0]
            assert again.tobytes() == frame.tobytes()

    def test_arc_needs_two_dof(self):
        with pytest.raises(ValueError, match="ARC"):
            generate_demo(TaskSpec(dof=1), Pattern.ARC, (0.1, 0.7), 8)

    def test_start_outside_workspace(self, spec):
        for start in [(1.4, 0.0), (np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5),
                      (0.5, -np.inf)]:
            with pytest.raises(ValueError, match="outside workspace"):
                generate_demo(spec, Pattern.STRAIGHT, start, 8)


def rewrite_record(path, edit):
    """Apply ``edit`` to the JSON record in a demo file's header, in place,
    or write ``edit`` itself as the record if it is not a function (bytes
    verbatim, anything else as JSON)."""
    magic, comment, rest = path.read_bytes().split(b"\n", 2)
    record = json.loads(comment[2:])
    if callable(edit):
        edit(record)
    else:
        record = edit
    if not isinstance(record, bytes):
        record = json.dumps(record).encode()
    path.write_bytes(magic + b"\n# " + record + b"\n" + rest)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 8)
        save_demo(demo, tmp_path / "d0.pgm")
        back = load_demo(tmp_path / "d0.pgm")
        assert back.frames.tobytes() == demo.frames.tobytes()
        np.testing.assert_array_equal(back.positions, demo.positions)
        assert back.pattern == demo.pattern
        assert back.spec == demo.spec

    def test_one_frame_demo_round_trip(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, spec.target, 8)
        assert len(demo) == 1
        save_demo(demo, tmp_path / "d.pgm")
        back = load_demo(tmp_path / "d.pgm")
        assert back.frames.tobytes() == demo.frames.tobytes()
        assert back.positions.tobytes() == demo.positions.tobytes()

    def test_loaded_frames_match_rerender(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.ARC, (0.8, 0.2), 6, seed=4)
        save_demo(demo, tmp_path / "d1.pgm")
        back = load_demo(tmp_path / "d1.pgm")
        assert render(back.positions, back.spec).tobytes() == back.frames.tobytes()

    def test_positions_come_back_exactly(self, tmp_path):
        spec = TaskSpec(sprite=SpriteKind.EXECUTOR, target=(1 / 3, 2 / 7))
        demo = generate_demo(spec, Pattern.ARC, (0.9, 0.85), 11, seed=3, arc_bulge=0.3)
        save_demo(demo, tmp_path / "d.pgm")
        back = load_demo(tmp_path / "d.pgm")
        assert back.positions.tobytes() == demo.positions.tobytes()
        assert back.spec == spec and back.pattern is Pattern.ARC

    def test_file_layout(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4)
        save_demo(demo, tmp_path / "d.pgm")
        raw = (tmp_path / "d.pgm").read_bytes()
        magic, comment, size, maxval, pixels = raw.split(b"\n", 4)
        assert (magic, size, maxval) == (b"P5", b"32 160", b"255")
        record = json.loads(comment[2:])
        assert comment == b"# " + json.dumps(record, sort_keys=True).encode("ascii")
        assert record == {"schema_version": 2, "task": plain(spec), "pattern": "straight",
                          "positions": demo.positions.tolist()}
        assert pixels == np.round(demo.frames * 255.0).astype(np.uint8).tobytes()

    def test_truncated_frame_rejected(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4)
        save_demo(demo, tmp_path / "d2.pgm")
        f = tmp_path / "d2.pgm"
        f.write_bytes(f.read_bytes()[:-10])
        with pytest.raises(ValueError, match="pixel payload of 5110 bytes is not 32 x 160"):
            load_demo(f)

    def test_overlong_payload_rejected(self, tmp_path, spec):
        demo = generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4)
        save_demo(demo, tmp_path / "d.pgm")
        f = tmp_path / "d.pgm"
        f.write_bytes(f.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="pixel payload of 5121 bytes is not 32 x 160"):
            load_demo(f)

    @pytest.mark.parametrize("header, message", [
        (b"P2\n5 3\n255\n", "not a binary PGM"),
        (b"P5\n5 3\n65535\n", "expected maxval 255, got 65535"),
    ])
    def test_pgm_reader_refuses_other_formats(self, tmp_path, header, message):
        (tmp_path / "f.pgm").write_bytes(header + bytes(30))
        with pytest.raises(ValueError, match=message):
            load_demo(tmp_path / "f.pgm")

    def test_plain_pgm_without_record_rejected(self, tmp_path):
        (tmp_path / "f.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(32 * 32))
        with pytest.raises(ValueError, match="no demo record"):
            load_demo(tmp_path / "f.pgm")

    @pytest.mark.parametrize("version", [1, 3, None])
    def test_unsupported_schema_rejected(self, tmp_path, spec, version):
        save_demo(generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4), tmp_path / "d.pgm")
        rewrite_record(tmp_path / "d.pgm", lambda r: r.update(schema_version=version))
        with pytest.raises(ValueError, match=f"unsupported demo schema {version}"):
            load_demo(tmp_path / "d.pgm")

    @pytest.mark.parametrize("edit", [
        lambda r: r["positions"].pop(),
        lambda r: r["positions"].append([0.5, 0.5]),
        lambda r: r["task"].update(image_size=16),
    ], ids=["fewer-positions", "more-positions", "smaller-image"])
    def test_frames_must_match_the_record(self, tmp_path, spec, edit):
        save_demo(generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4), tmp_path / "d.pgm")
        rewrite_record(tmp_path / "d.pgm", edit)
        with pytest.raises(ValueError, match="32 x 160 pixels do not hold"):
            load_demo(tmp_path / "d.pgm")

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r["task"].pop("a_max"), "TaskSpec record lacks field 'a_max'"),
        (lambda r: r["task"].update(target=None), "TaskSpec field 'target' is mistyped"),
        ([], "the demo record is not a JSON object"),
        (lambda r: r.pop("task"), "the demo record lacks 'task'"),
        (lambda r: r.pop("pattern"), "the demo record lacks 'pattern'"),
        (lambda r: r.pop("positions"), "the demo record lacks 'positions'"),
        (lambda r: r.update(positions=None), r"positions of shape \(\) are not"),
        (b'{"schema_version": 2,', "the demo record is not JSON"),
        (b'{"schema_version": 2, "pattern": "\xff"}', "the demo record is not JSON"),
    ], ids=["no-a_max", "null-target", "list", "no-task", "no-pattern", "no-positions",
            "null-positions", "truncated", "not-utf8"])
    def test_malformed_task_record_rejected(self, tmp_path, spec, edit, message):
        path = tmp_path / "d.pgm"
        save_demo(generate_demo(spec, Pattern.STRAIGHT, (0.1, 0.2), 4), path)
        rewrite_record(path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            load_demo(path)


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
