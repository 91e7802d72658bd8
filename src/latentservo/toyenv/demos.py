"""Demonstration sequences: pattern generators and on-disk persistence.

A demo file is one binary PGM: the frames stacked top to bottom, with the
task spec, pattern and ground-truth positions as a JSON record in the
header's comment line. Re-rendering the stored positions reproduces the
stored frames bit-exactly.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..plain import plain, unplain
from .task import TaskSpec, render

DEMO_SCHEMA = 2


class Pattern(enum.Enum):
    STRAIGHT = "straight"
    ARC = "arc"


@dataclass
class DemoSequence:
    frames: np.ndarray        # (T+1, H, W) float32
    positions: np.ndarray     # (T+1, 2) float64
    spec: TaskSpec
    pattern: Pattern

    def __post_init__(self):
        if len(self.frames) != len(self.positions):
            raise ValueError("frames and positions must have equal length")
        if len(self.frames) < 1:
            raise ValueError("a demo needs at least one frame")

    def __len__(self) -> int:
        return len(self.frames)


def _arc_positions(start: np.ndarray, target: np.ndarray, steps: int,
                   bulge: float, side: float) -> np.ndarray:
    chord = target - start
    length = float(np.linalg.norm(chord))
    sagitta = bulge * length
    radius = (length * length / 4.0 + sagitta * sagitta) / (2.0 * sagitta)
    normal = np.array([-chord[1], chord[0]]) / length * side
    center = (start + target) / 2.0 - (radius - sagitta) * normal
    th0 = math.atan2(start[1] - center[1], start[0] - center[0])
    th1 = math.atan2(target[1] - center[1], target[0] - center[0])
    # choose the sweep that passes through the bulge apex
    apex = (start + target) / 2.0 + sagitta * normal
    tha = math.atan2(apex[1] - center[1], apex[0] - center[0])
    sweep = (th1 - th0) % (2.0 * math.pi)
    if (tha - th0) % (2.0 * math.pi) > sweep:
        sweep -= 2.0 * math.pi
    ts = np.linspace(0.0, 1.0, steps + 1)
    angles = th0 + sweep * ts
    pts = center + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts[0] = start
    pts[-1] = target
    return np.clip(pts, 0.0, 1.0)


def generate_demo(spec: TaskSpec, pattern: Pattern, start, steps: int,
                  seed: int = 0, arc_bulge: float = 0.25) -> DemoSequence:
    """Path from ``start`` to the task target, one rendered frame per step."""
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (2,):
        raise ValueError(f"start must be a 2-D point, got shape {start.shape}")
    if not np.all((start >= 0.0) & (start <= 1.0)):     # NaN fails both
        raise ValueError(f"start {start} outside workspace")
    target = np.asarray(spec.target, dtype=np.float64)
    if spec.dof == 1:
        if pattern is Pattern.ARC:
            raise ValueError("ARC pattern needs 2 degrees of freedom")
        start = np.array([start[0], target[1]])

    if np.allclose(start, target):
        positions = start[None, :]
    elif steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    elif pattern is Pattern.STRAIGHT:
        ts = np.linspace(0.0, 1.0, steps + 1)[:, None]
        positions = start[None, :] * (1.0 - ts) + target[None, :] * ts
    else:
        side = 1.0 if np.random.default_rng(seed).integers(0, 2) == 0 else -1.0
        positions = _arc_positions(start, target, steps, arc_bulge, side)

    frames = render(positions, spec)
    return DemoSequence(frames=frames, positions=positions, spec=spec, pattern=pattern)


# ------------------------------------------------------------- persistence

# The header save_demo writes. The record line is optional here only so
# that a plain PGM is refused by name.
_HEADER = re.compile(rb"P5\n(?:# ([^\n]*)\n)?(\d+) (\d+)\n(\d+)\n")


def save_demo(demo: DemoSequence, path) -> None:
    record = json.dumps({
        "schema_version": DEMO_SCHEMA,
        "task": plain(demo.spec),
        "pattern": demo.pattern.value,
        "positions": [[float(x), float(y)] for x, y in demo.positions],
    }, sort_keys=True)
    _, h, w = demo.frames.shape
    pixels = np.round(demo.frames * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n# {record}\n{w} {len(demo) * h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def load_demo(path) -> DemoSequence:
    raw = Path(path).read_bytes()
    header = _HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM")
    record, w, rows, maxval = header.groups()
    w, rows, maxval = int(w), int(rows), int(maxval)
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    if record is None:
        raise ValueError(f"{path}: no demo record in the header")
    try:
        record = json.loads(record)
    except ValueError as exc:   # JSONDecodeError, or UnicodeDecodeError
        raise ValueError(f"{path}: the demo record is not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: the demo record is not a JSON object")
    if record.get("schema_version") != DEMO_SCHEMA:
        raise ValueError(f"{path}: unsupported demo schema "
                         f"{record.get('schema_version')}")
    try:
        spec = unplain(TaskSpec, record["task"])
        pattern = Pattern(record["pattern"])
        positions = np.asarray(record["positions"], dtype=np.float64)
        if positions.shape[1:] != (2,):
            raise ValueError(f"positions of shape {positions.shape} are not (x, y) rows")
    except KeyError as exc:
        raise ValueError(f"{path}: the demo record lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=header.end())
    if pixels.size != w * rows:
        raise ValueError(f"{path}: pixel payload of {pixels.size} bytes "
                         f"is not {w} x {rows}")
    size = spec.image_size
    if (w, rows) != (size, len(positions) * size):
        raise ValueError(f"{path}: {w} x {rows} pixels do not hold "
                         f"{len(positions)} frames of {size} x {size}")
    frames = pixels.reshape(len(positions), size, size).astype(np.float32) / 255.0
    return DemoSequence(frames=frames, positions=positions, spec=spec, pattern=pattern)
