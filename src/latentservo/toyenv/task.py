"""Deterministic 2D hand-eye toy task: sprites on a grayscale canvas.

The workspace is the unit square. An effector sprite (disc for TEACHER,
equal-area square for EXECUTOR) moves under bounded position increments;
a fixed cross marks the target. Rendering is a pure, noise-free function
of (state, spec): anti-aliased coverage, max-blended, then quantized to
256 gray levels so frames survive 8-bit persistence bit-exactly. Only the
pixels around the sprite are computed per frame; the rest is a cached
background with the same bytes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Tuple

import numpy as np

WORKSPACE_LO = 0.0
WORKSPACE_HI = 1.0


class SpriteKind(enum.Enum):
    TEACHER = "teacher"    # filled disc (demonstrator)
    EXECUTOR = "executor"  # filled square of equal area


@dataclass(frozen=True)
class TaskSpec:
    """Geometry of one task instance."""

    dof: int = 2
    target: Tuple[float, float] = (0.7, 0.7)
    image_size: int = 32
    sprite: SpriteKind = SpriteKind.TEACHER
    sprite_radius: float = 3.0       # pixels
    target_intensity: float = 0.7
    cross_arm: float = 2.5           # pixels, half-length of each bar
    a_max: float = 0.05              # workspace units per step

    def __post_init__(self):
        if self.dof not in (1, 2):
            raise ValueError(f"dof must be 1 or 2, got {self.dof}")
        if self.image_size < 16:
            raise ValueError(f"image_size must be >= 16, got {self.image_size}")
        if len(self.target) != 2:
            raise ValueError(f"target {self.target} is not a 2-D point")
        if not all(WORKSPACE_LO <= c <= WORKSPACE_HI for c in self.target):
            raise ValueError(f"target {self.target} outside workspace")
        if not (self.sprite_radius > 0 and self.a_max > 0):
            raise ValueError("sprite_radius and a_max must be positive")
        if 2 * self.pixel_margin >= self.image_size - 1:
            raise ValueError(
                f"sprite radius {self.sprite_radius} too large for a "
                f"{self.image_size}px image: sprite would leave the frame")

    @property
    def pixel_margin(self) -> float:
        # sprite body + 1px anti-aliasing skirt stays inside the frame
        return self.sprite_radius + 2.0

    def with_sprite(self, sprite: SpriteKind) -> "TaskSpec":
        return replace(self, sprite=sprite)


@dataclass
class WorldState:
    position: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (2,):
            raise ValueError(f"position must be 2-D, got shape {pos.shape}")
        object.__setattr__(self, "position", _clamp(pos))


def _clamp(positions: np.ndarray) -> np.ndarray:
    """``np.clip`` to the workspace, bit for bit (-0.0 and NaN kept), at less call cost."""
    return np.minimum(np.maximum(WORKSPACE_LO, positions), WORKSPACE_HI)


def to_pixels(position, spec: TaskSpec) -> tuple:
    """Workspace (x, y) -> fractional pixel (col, row), also row-wise on (N, 2)."""
    m = spec.pixel_margin
    span = spec.image_size - 1 - 2 * m
    pixels = m + np.asarray(position, dtype=np.float64) * span
    return pixels[..., 0], pixels[..., 1]


def _unit_clip(x: np.ndarray) -> np.ndarray:
    """``np.clip(x, 0.0, 1.0)`` in place, with the same bits (see ``_clamp``)."""
    np.maximum(0.0, x, out=x)
    return np.minimum(x, 1.0, out=x)


def _disc_coverage(dx, dy, radius):
    d = np.hypot(dx, dy)
    np.subtract(radius, d, out=d)
    d += 0.5
    return _unit_clip(d)


def _rect_coverage(dx, dy, half_w, half_h):
    u = half_w - np.abs(dx)
    u += 0.5
    v = half_h - np.abs(dy)
    v += 0.5
    return _unit_clip(u) * _unit_clip(v)


def _half_extent(spec: TaskSpec) -> float:
    """Disc radius, or half-side of the equal-area square, in pixels."""
    if spec.sprite is SpriteKind.TEACHER:
        return spec.sprite_radius
    return spec.sprite_radius * math.sqrt(math.pi) / 2.0


def _quantize(img: np.ndarray) -> np.ndarray:
    """Round float64 intensities, in place, to the nearest k/255; return float32."""
    img *= 255.0
    np.rint(img, out=img)     # what np.round does at 0 decimals
    img /= 255.0
    return img.astype(np.float32)


@lru_cache(maxsize=32)
def _target_layer(spec: TaskSpec) -> np.ndarray:
    idx = np.arange(spec.image_size, dtype=np.float64)
    tx, ty = to_pixels(spec.target, spec)
    dx, dy = idx - tx, (idx - ty)[:, None]
    bar_h = _rect_coverage(dx, dy, spec.cross_arm, 0.5)
    bar_v = _rect_coverage(dx, dy, 0.5, spec.cross_arm)
    layer = np.maximum(bar_h, bar_v) * spec.target_intensity
    layer.setflags(write=False)
    return layer


@lru_cache(maxsize=32)
def _window(spec: TaskSpec):
    """The sprite window of ``spec`` and the quantized frame without a sprite.

    Coverage falls to 0 at ``reach`` pixels from the sprite centre along
    either axis (within rounding, far below half a gray level), so the
    (2 * ceil(reach) + 1)-pixel square from ``floor(centre - reach)`` holds
    every pixel a sprite changes. The pixel margin keeps it inside the frame.
    """
    reach = _half_extent(spec) + 0.5
    idx = np.arange(2 * math.ceil(reach) + 1)
    offsets = idx[:, None] * spec.image_size + idx  # window pixel -> flat frame index
    strides = np.array([1.0, spec.image_size])      # (col, row) -> flat frame index
    background = _quantize(np.maximum(_target_layer(spec), 0.0))
    background.setflags(write=False)
    return reach, idx.astype(np.float64), offsets, strides, background


def as_positions(positions) -> np.ndarray:
    """A float64 (N, 2) position stack; a ``WorldState`` is one row; others raise."""
    if isinstance(positions, WorldState):
        return positions.position[None]
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions must have shape (N, 2), got {pos.shape}")
    return pos


def render(positions, spec: TaskSpec) -> np.ndarray:
    """One observation frame per position: (N, 2) -> float32 (N, H, W), values k/255.

    Each frame is the full-frame max-blend of target and sprite, quantized,
    but computed on the sprite's window only. Quantizing is monotone, so
    the max of the quantized background and quantized sprite has the same
    bits as the quantized max. A NaN position raises ``ValueError``.
    """
    pos = _clamp(as_positions(positions))
    reach, idx, offsets, strides, background = _window(spec)
    n, size, m = len(pos), spec.image_size, spec.pixel_margin
    centres = m + pos[:, :, None] * (size - 1 - 2 * m)  # (N, 2, 1), as to_pixels
    lo = np.floor(centres - reach)                       # window corner (col, row)
    delta = lo + idx
    delta -= centres                                     # (N, 2, w) pixel - centre
    dx, dy = delta[:, 0, None, :], delta[:, 1, :, None]
    half = _half_extent(spec)
    if spec.sprite is SpriteKind.TEACHER:
        sprite = _quantize(_disc_coverage(dx, dy, half))
    else:
        sprite = _quantize(_rect_coverage(dx, dy, half, half))
    corner = lo[:, :, 0] @ strides + np.arange(0, n * size * size, size * size)
    if math.isnan(corner.dot(corner)):  # cheaper than np.isnan(pos).any()
        raise ValueError("a NaN position has no frame")
    pixels = corner.astype(np.intp)[:, None, None] + offsets
    frames = np.empty((n, size, size), np.float32)
    frames[...] = background
    flat = frames.reshape(-1)
    flat[pixels] = np.maximum(flat[pixels], sprite, out=sprite)
    return frames


def norm64(d: np.ndarray) -> float:
    """``float(np.linalg.norm(d))`` of a 1-D float64 ``d``, without its call cost.

    ``norm`` takes ``sqrt(d.dot(d))``, and ``math.sqrt`` rounds as ``np.sqrt``
    does in float64; in another dtype the two square roots differ.
    """
    return math.sqrt(d.dot(d))


def clip_action(a: np.ndarray, a_max: float) -> np.ndarray:
    """``a`` scaled down to Euclidean norm ``a_max`` if longer; else ``a`` itself.

    A 2-D float64 ``a`` is a stack of actions, clipped row by row with the
    bits each row gets alone (``np.vecdot`` runs ``dot``'s kernel, and a
    row within the limit is scaled by exactly 1); a stack of several rows
    is returned itself when no row is longer.
    """
    if a.ndim == 2 and a.dtype == np.float64:
        if len(a) == 1:  # the row itself, at one-row cost
            return clip_action(a[0], a_max)[None]
        # a stack holds a few rows: Python floats cost less than ufunc calls
        norms = [math.sqrt(x) for x in np.vecdot(a, a).tolist()]
        if max(norms, default=0.0) <= a_max:  # a NaN row is left as it is either way
            return a
        return a * np.array([a_max / norm if norm > a_max else 1.0
                             for norm in norms])[:, None]
    if a.ndim == 1 and a.dtype == np.float64:
        norm = norm64(a)
    else:
        norm = float(np.linalg.norm(a))
    return a * (a_max / norm) if norm > a_max else a


def step_positions(positions: np.ndarray, actions: np.ndarray,
                   spec: TaskSpec) -> np.ndarray:
    """``step`` on a stack: (N, 2) positions moved by (N, dof) float64 actions.

    Each action is clipped to ``a_max`` and each new position clamped to the
    workspace, row by row with the bits of ``step``.
    """
    if actions.shape != (len(positions), spec.dof):
        raise ValueError(f"actions must have shape ({len(positions)}, {spec.dof}), "
                         f"got {actions.shape}")
    a = clip_action(actions, spec.a_max)
    if spec.dof == 1:
        a = np.hstack([a, np.zeros_like(a)])
    return _clamp(positions + a)


def step(state: WorldState, action, spec: TaskSpec) -> WorldState:
    """Apply a bounded position increment; position is clamped to bounds."""
    a = np.asarray(action, dtype=np.float64).reshape(-1)
    if a.shape != (spec.dof,):
        raise ValueError(f"action must have dim {spec.dof}, got shape {a.shape}")
    return WorldState(position=step_positions(state.position[None], a[None], spec)[0])


def random_start(spec: TaskSpec, rng: np.random.Generator,
                 margin: float = 0.08, min_target_dist: float = 0.15) -> np.ndarray:
    """Uniform interior start, re-drawn until it clears the target region."""
    target = np.asarray(spec.target, dtype=np.float64)
    for _ in range(1000):
        if spec.dof == 1:
            pos = np.array([rng.uniform(margin, 1.0 - margin), target[1]])
        else:
            pos = rng.uniform(margin, 1.0 - margin, size=2)
        if np.linalg.norm(pos - target) >= min_target_dist:
            return pos
    raise RuntimeError("could not sample a start away from the target")
