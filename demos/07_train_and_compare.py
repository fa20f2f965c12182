"""Walkthrough: the full pipeline at desk scale.

Trains a small controller on synthetic problems, then compares it on two
held-out problems against the untrained network and the tightening
schedule baseline, with paired initialization seeds.  Takes roughly a
minute on a laptop-class CPU.
"""
import dataclasses

from rlrelax.config import ExperimentConfig
from rlrelax.harness import aggregate_table, evaluate, run_baseline, train

cfg = ExperimentConfig(
    problems=[
        "synthetic/sphere-linear/0",
        "synthetic/rastrigin-ring/1",
        "synthetic/ackley-ellipsoid/2",
        "synthetic/griewank-plane/3",
        "synthetic/schwefel-band/4",
    ],
    dims=[10], pop_size=50, maxfes_per_dim=50,  # 500-evaluation budget
    runs=5, seed=0, epochs=20,
)

print(f"training on {len(cfg.problems)} problems, {cfg.epochs} epochs ...")
result = train(cfg)
returns = [row["return"] for row in result.episodes]
print(f"episodes: {len(result.episodes)}, "
      f"mean return first 10: {sum(returns[:10]) / 10:.3f}, "
      f"last 10: {sum(returns[-10:]) / 10:.3f}")

held_out = dataclasses.replace(cfg, test_problems=["cec12", "synthetic/rosenbrock-cubic/5"])
print(f"\nevaluating on held-out problems: {', '.join(held_out.test_problems)}")
records = evaluate(held_out, result.params, result.metadata)
records += run_baseline(held_out, "untrained-agent")
records += run_baseline(held_out, "scheduled-eps")
records += run_baseline(held_out, "feasibility-rule")

print(f"\n{'problem':34s} {'method':22s} {'mean score':>14s} {'std':>12s}")
for row in aggregate_table(records):
    print(f"{row['problem']:34s} {row['method']:22s} "
          f"{row['mean']:14.2f} {row['std']:12.2f}")
