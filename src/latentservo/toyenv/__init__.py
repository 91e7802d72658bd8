from .task import (
    SpriteKind,
    TaskSpec,
    WorldState,
    random_start,
    render,
    step,
    to_pixels,
)
from .demos import DemoSequence, Pattern, generate_demo, load_demo, save_demo
from .sampling import grid_positions

__all__ = [
    "DemoSequence", "Pattern", "SpriteKind", "TaskSpec", "WorldState",
    "generate_demo", "grid_positions", "load_demo", "random_start", "render",
    "save_demo", "step", "to_pixels",
]
