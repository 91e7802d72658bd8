"""Demonstration sequences: pattern generators and on-disk persistence.

A demo directory holds ``manifest.json`` (task spec, pattern, ground-truth
positions) plus one binary PGM per frame; re-rendering the stored
positions reproduces the stored frames bit-exactly.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..plain import plain
from .task import TaskSpec, render

MANIFEST_SCHEMA = 1


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
    if np.any(start < 0.0) or np.any(start > 1.0):
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

def _write_pgm(path: Path, frame: np.ndarray) -> None:
    h, w = frame.shape
    data = np.round(frame * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


# The header _write_pgm writes: magic, width, height and maxval, then one
# whitespace byte before the pixels.
_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM")
    w, h, maxval = (int(x) for x in header.groups())
    if maxval != 255:
        raise ValueError(f"{path}: expected maxval 255, got {maxval}")
    pixels = np.frombuffer(raw[header.end():header.end() + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"{path}: truncated pixel payload")
    return (pixels.reshape(h, w).astype(np.float32)) / 255.0


def save_demo(demo: DemoSequence, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": MANIFEST_SCHEMA,
        "task": plain(demo.spec),
        "pattern": demo.pattern.value,
        "positions": [[float(x), float(y)] for x, y in demo.positions],
        "frame_count": len(demo),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    for i, frame in enumerate(demo.frames):
        _write_pgm(directory / f"frame_{i:04d}.pgm", frame)


def load_demo(directory) -> DemoSequence:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("schema_version") != MANIFEST_SCHEMA:
        raise ValueError(f"{directory}: unsupported demo schema "
                         f"{manifest.get('schema_version')}")
    spec = TaskSpec.from_dict(manifest["task"])
    positions = np.asarray(manifest["positions"], dtype=np.float64)
    frames = np.stack([_read_pgm(directory / f"frame_{i:04d}.pgm")
                       for i in range(manifest["frame_count"])])
    return DemoSequence(frames=frames, positions=positions, spec=spec,
                        pattern=Pattern(manifest["pattern"]))
