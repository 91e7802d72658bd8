from .taskmap import TaskMap, build_task_map
from .factors import (
    DEFAULT_TAU,
    FactorSet,
    alpha_score,
    extract_time_varying,
    project,
    select_control_factors,
    select_sae_pair,
    variance_smoothness,
)
from .fieldmap import (
    LatentFieldMap,
    MonotonicityReport,
    build_field_map,
    injectivity_metric,
    monotonicity_metric,
    suggest_collision_eps,
)
from .embodiment import (
    EmbodimentReport,
    embodiment_compare,
    resample_trajectory,
    shuffle_demo_frames,
)

__all__ = [
    "DEFAULT_TAU", "EmbodimentReport", "FactorSet", "LatentFieldMap",
    "MonotonicityReport", "TaskMap", "alpha_score", "build_field_map",
    "build_task_map", "embodiment_compare", "extract_time_varying",
    "injectivity_metric", "monotonicity_metric", "project",
    "resample_trajectory", "select_control_factors", "select_sae_pair",
    "shuffle_demo_frames", "suggest_collision_eps", "variance_smoothness",
]
