"""Learned epsilon-relaxation control for constrained differential evolution.

A small numpy toolkit: constrained problems with exact and relaxed
violation accounting, a success-history adaptive DE whose survivor
selection follows the epsilon-lexicographic rule, a ten-feature
population observation, an episodic control environment, a hand-rolled
double-estimator Q-network, and a reproducible experiment harness.
"""

from .cop import BudgetCounter, ConstrainedProblem, eps_compare
from .env import (ActionSpace, EpsilonBase, EpsilonControlEnv, Transition, compute_reward,
                  epsilon_from_action, epsilon_linear_step, reward_components)
from .features import extract_state, mask_constraint_features, top5_violation_mean
from .problems import ProblemRegistry, registry_lookup, synthetic_family
from .agent import NetworkParams, ReplayBuffer, TrainConfig, forward, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "BudgetCounter",
    "ConstrainedProblem",
    "EpsilonBase",
    "EpsilonControlEnv",
    "ExperimentConfig",
    "NetworkParams",
    "ProblemRegistry",
    "ReplayBuffer",
    "TrainConfig",
    "Transition",
    "compute_reward",
    "eps_compare",
    "epsilon_from_action",
    "epsilon_linear_step",
    "extract_state",
    "forward",
    "load_checkpoint",
    "load_config",
    "mask_constraint_features",
    "registry_lookup",
    "reward_components",
    "save_checkpoint",
    "synthetic_family",
    "top5_violation_mean",
]
