from .task import (
    SpriteKind,
    TaskSpec,
    WorldState,
    as_positions,
    clip_action,
    norm64,
    random_start,
    render,
    step,
    step_positions,
    to_pixels,
)
from .demos import DemoSequence, Pattern, generate_demo, load_demo, save_demo
from .sampling import grid_positions

__all__ = [
    "DemoSequence", "Pattern", "SpriteKind", "TaskSpec", "WorldState",
    "as_positions", "clip_action", "generate_demo", "grid_positions", "load_demo",
    "norm64", "random_start", "render", "save_demo", "step", "step_positions",
    "to_pixels",
]
