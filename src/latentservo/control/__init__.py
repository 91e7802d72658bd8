from .sensors import (
    Sensor,
    calibrate_goal_tolerance,
    model_sensor,
    oracle_sensor,
    target_factors,
)
from .uvs import (
    JacobianEstimate,
    UVSConfig,
    UVSController,
    broyden_update,
    uvs_init_jacobian,
    uvs_step,
)
from .reinforce import (
    GuidedReinforceController,
    Policy,
    ReinforceConfig,
    TrainEpisode,
    clip_action,
    discounted_returns,
    guidance_action,
    reinforce_update,
    reward,
    rollout,
    sample_action,
    train_policy,
)
from .loop import EpisodeResult, SuccessStats, control_loop, episode_trace_csv, evaluate_success

__all__ = [
    "EpisodeResult", "GuidedReinforceController", "JacobianEstimate", "Policy",
    "ReinforceConfig", "Sensor", "SuccessStats", "TrainEpisode", "UVSConfig",
    "UVSController", "broyden_update", "calibrate_goal_tolerance", "clip_action",
    "control_loop", "discounted_returns", "episode_trace_csv", "evaluate_success",
    "guidance_action", "model_sensor", "oracle_sensor", "reinforce_update",
    "reward", "rollout", "sample_action", "target_factors", "train_policy",
    "uvs_init_jacobian", "uvs_step",
]
