"""Pure helpers of the benchmark: percentiles, span self time, seeded inputs.

Nothing here imports latentservo, so these functions can be tested (and
reasoned about) without the program under measurement.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Sequence, Tuple

# (name, start, end, parent index or -1, run id)
Span = Tuple[str, float, float, int, int]

TARGET = (0.7, 0.7)
# Seeded demo starts keep this far from the image border, this far from the
# target, and this far from the target along each axis.
DEMO_MARGIN = 0.08
MIN_TARGET_DIST = 0.3
MIN_AXIS_TRAVEL = 0.15


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Linear-interpolated ``q``-th percentile of ``values`` and the sample count.

    Uses the same rule as ``numpy.percentile``'s default ("linear"): rank
    ``(n - 1) * q / 100`` into the sorted values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = (n - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo), n


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)[0]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the durations of its child spans.

    The tracer keeps one span stack on one thread, so children nest inside
    their parent one after another and never overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def rescaled(figures: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """Figures of a stretch of the run in which the machine ran ``slowdown``
    times slower than the reference speed, rescaled to that speed: rates
    (names ending ``_per_s``) times the slowdown, times (``_s``) over it,
    anything else as it is."""
    out = {}
    for name, value in figures.items():
        if name.endswith("_per_s"):
            value *= slowdown
        elif name.endswith("_s"):
            value /= slowdown
        out[name] = value
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span[0])
        out[layer] = out.get(layer, 0.0) + own
    return out


def derive_seed(seed: int, label: str) -> int:
    """Independent 32-bit sub-seed for one use of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def demo_starts(seed: int, count: int) -> List[Tuple[float, float]]:
    """Seeded interior start points that keep clear of the task target.

    Every straight demo from such a start to the target moves along both
    axes: with two demos that both run nearly parallel to one axis, an SAE
    can learn no time-varying (x, y) pair and the control stages fail.
    """
    rng = random.Random(derive_seed(seed, "demo-starts"))
    starts = []
    while len(starts) < count:
        x, y = (round(rng.uniform(DEMO_MARGIN, 1.0 - DEMO_MARGIN), 3)
                for _ in range(2))
        dx, dy = abs(x - TARGET[0]), abs(y - TARGET[1])
        if math.hypot(dx, dy) >= MIN_TARGET_DIST and min(dx, dy) >= MIN_AXIS_TRAVEL:
            starts.append((x, y))
    return starts


def make_ini(seed: int, out_dir: str, reinforce_lr: float = 1e-4) -> str:
    """Pipeline config with the sections and keys of ``tests/data/tiny.ini``.

    The global seed and the demo starts come from ``seed``; the run
    directory is ``out_dir``. ``reinforce_lr`` is the one value the
    reinforce-edit phase changes: it leaves the amount of work unchanged.
    """
    starts = "; ".join(f"{x}, {y}" for x, y in demo_starts(seed, 2))
    return f"""\
[meta]
schema_version = 1
seed = {derive_seed(seed, "pipeline")}
out_dir = {out_dir}

[task]
dof = 2
image_size = 32
sprite_radius = 3.0
target = {TARGET[0]}, {TARGET[1]}
a_max = 0.05

[demos]
count = 2
pattern = straight
steps = 8
starts = {starts}
executor = true

[methods]
train = bvae, sae

[method.bvae]
latent_dim = 16
alpha = 0.12
epochs = 8
batch_size = 16
learning_rate = 2e-3

[method.sae]
channels = 8
temperature = 4.0
epochs = 80
batch_size = 16
learning_rate = 2e-3

[analysis]
tau = 0.2
grid_n = 12
alpha_sweep = 0.05, 0.5
alpha_sweep_epochs = 4
collision_fraction = 0.04
fieldmap_methods = sae

[control]
methods = sae
trials = 3
max_steps = 50
goal_workspace_tol = 0.02
include_oracle = true

[uvs]
eps_explore = 0.05
gain = 0.5
damping = 1e-3

[reinforce]
gamma = 0.99
learning_rate = {reinforce_lr!r}
episodes = 4
horizon = 25
batch_episodes = 4
r_goal = 10.0
k_gain = 0.5
"""
