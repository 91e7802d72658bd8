"""Teacher-to-executor transfer comparison for a frozen representation.

The model is trained on one sprite (the demonstrator); both demo sets
share the task geometry and differ only in sprite. Factor sets are
extracted independently per sprite, matched factors are correlated over
normalized time, and the final task states are compared in latent space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..representations import ModelWeights, encode
from ..toyenv import DemoSequence
from .factors import DEFAULT_TAU, FactorSet, extract_time_varying
from .taskmap import build_task_map

RESAMPLE_POINTS = 32

VERDICT_UNDETERMINED = "UNDETERMINED"
VERDICT_STRONG = "STRONG"
VERDICT_PARTIAL = "PARTIAL"
VERDICT_WEAK = "WEAK"


@dataclass
class EmbodimentReport:
    jaccard: float
    matched_factors: tuple
    correlations: Dict[int, float]   # matched factor -> mean trajectory corr
    mean_correlation: float
    final_latent_distance: float
    verdict: str
    teacher_factors: FactorSet
    executor_factors: FactorSet

    def __post_init__(self):
        if not 0.0 <= self.jaccard <= 1.0:
            raise ValueError(f"jaccard {self.jaccard} outside [0, 1]")
        for f, c in self.correlations.items():
            if not -1.0 - 1e-9 <= c <= 1.0 + 1e-9:
                raise ValueError(f"correlation {c} for factor {f} outside [-1, 1]")


def resample_trajectory(values: np.ndarray, points: int = RESAMPLE_POINTS) -> np.ndarray:
    """Linear resampling to a fixed number of uniform time points."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 1:
        return np.full(points, values[0])
    src = np.linspace(0.0, 1.0, len(values))
    dst = np.linspace(0.0, 1.0, points)
    return np.interp(dst, src, values)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    r = float(np.corrcoef(a, b)[0, 1])
    return 0.0 if np.isnan(r) else r


def embodiment_compare(model: ModelWeights, teacher_demos: Sequence[DemoSequence],
                       executor_demos: Sequence[DemoSequence],
                       tau: float = DEFAULT_TAU) -> EmbodimentReport:
    if not teacher_demos or not executor_demos:
        raise ValueError("both demo sets must be non-empty")

    t_maps = [build_task_map(model, d) for d in teacher_demos]
    e_maps = [build_task_map(model, d) for d in executor_demos]
    t_factors = extract_time_varying(t_maps, tau)
    e_factors = extract_time_varying(e_maps, tau)

    t_set, e_set = set(t_factors.indices), set(e_factors.indices)
    union = t_set | e_set
    jaccard = len(t_set & e_set) / len(union) if union else 0.0
    matched = tuple(sorted(t_set & e_set))

    pairs = list(zip(t_maps, e_maps))  # paired by demo index
    correlations: Dict[int, float] = {}
    for f in matched:
        rs = []
        for tm, em in pairs:
            a = resample_trajectory(tm.values[:, f])
            b = resample_trajectory(em.values[:, f])
            rs.append(_pearson(a, b))
        correlations[f] = float(np.mean(rs))

    dists = []
    for td, ed in zip(teacher_demos, executor_demos):
        zt = encode(model, td.frames[-1]).values.astype(np.float64)
        ze = encode(model, ed.frames[-1]).values.astype(np.float64)
        dists.append(float(np.linalg.norm(zt - ze)))
    final_distance = float(np.mean(dists))

    if not t_factors.indices or not e_factors.indices:
        verdict = VERDICT_UNDETERMINED
        mean_corr = 0.0
    else:
        mean_corr = float(np.mean(list(correlations.values()))) if correlations else 0.0
        if jaccard >= 0.5 and mean_corr >= 0.8:
            verdict = VERDICT_STRONG
        elif mean_corr >= 0.5:
            verdict = VERDICT_PARTIAL
        else:
            verdict = VERDICT_WEAK

    return EmbodimentReport(
        jaccard=jaccard, matched_factors=matched, correlations=correlations,
        mean_correlation=mean_corr, final_latent_distance=final_distance,
        verdict=verdict, teacher_factors=t_factors, executor_factors=e_factors)


def shuffle_demo_frames(demo: DemoSequence, rng: np.random.Generator) -> DemoSequence:
    """Negative control: permute frames (and positions with them) in time."""
    perm = rng.permutation(len(demo))
    return DemoSequence(frames=demo.frames[perm], positions=demo.positions[perm],
                        spec=demo.spec, pattern=demo.pattern)
