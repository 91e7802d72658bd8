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
    broyden_updates,
    uvs_init_jacobian,
    uvs_steps,
)
from .reinforce import (
    GuidedReinforceController,
    Policy,
    ReinforceConfig,
    TrainEpisode,
    discounted_returns,
    guidance_action,
    reinforce_update,
    rollout,
    sample_action,
    train_policy,
)
from .loop import (EpisodeResult, SuccessStats, control_loop, evaluate_success,
                   reward, run_episodes)

__all__ = [
    "EpisodeResult", "GuidedReinforceController", "JacobianEstimate", "Policy",
    "ReinforceConfig", "Sensor", "SuccessStats", "TrainEpisode", "UVSConfig",
    "UVSController", "broyden_update", "broyden_updates", "calibrate_goal_tolerance",
    "control_loop",
    "discounted_returns", "evaluate_success",
    "guidance_action", "model_sensor", "oracle_sensor", "reinforce_update",
    "reward", "rollout", "run_episodes", "sample_action", "target_factors",
    "train_policy", "uvs_init_jacobian", "uvs_steps",
]
