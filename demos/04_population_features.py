"""Walkthrough: the ten-feature observation the controller sees.

Runs a few generations and prints the feature vector as it evolves, then
shows the constraint-feature mask used by the no-state ablation.
"""
import numpy as np

from rlrelax import (EpsilonControlEnv, ExperimentConfig, ProblemRegistry,
                     mask_constraint_features)

NAMES = ["coord spread", "objective spread", "coord mean", "objective mean",
         "objective progress", "violation progress", "feasible fraction",
         "budget used", "previous level", "f/nu coupling"]

problem = ProblemRegistry().lookup("synthetic/rastrigin-ring/1", 10)
# the settings come from the experiment config; the budget is the run's own
env = EpsilonControlEnv([problem], [np.random.default_rng(3)], ExperimentConfig(pop_size=50), 500)
state = env.reset()[0]  # one run: the first row of the (runs, 10) observation

print("feature".ljust(20), "reset ", sep="")
history = [state]
while not env.terminal:
    env.step(7)  # a fixed mid-high relaxation level; returns the step record, a row per run
    history.append(env.state[0])

for i, name in enumerate(NAMES):
    row = "  ".join(f"{s[i]:7.3f}" for s in history[::2])
    print(f"s{i + 1:<2d} {name:20s} {row}")

print("\nconstraint-feature mask (s6, s7, s9, s10 zeroed):")
masked = mask_constraint_features(history[-1])
print("before:", np.round(history[-1], 3))
print("after :", np.round(masked, 3))
