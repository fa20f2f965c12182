"""Walkthrough: the adaptive differential-evolution core, one run at two
relaxation settings.

The same seeded run is repeated with the constraint comparison fully
tight (eps = 0, a pure feasibility rule) and with a generous fixed
relaxation, to show how the relaxation shifts effort from constraint
satisfaction to objective descent.
"""
import numpy as np

from rlrelax import BudgetCounter, ProblemRegistry
from rlrelax.lshade import RunStats, generation_step, init_population

problem = ProblemRegistry().lookup("cec12", 10)


def run(eps, label):
    stats = RunStats(BudgetCounter(500), 50)  # 50 evaluations per generation
    rngs = [np.random.default_rng(7)]         # one run, same seed for both settings
    pop = init_population(problem, rngs, stats)
    print(f"\n--- {label} ---")
    print(f"gen  0: best score {stats.best_sco[0]:12.2f}")
    gen = 0
    while not stats.budget.exhausted:
        generation_step(pop, problem, eps, rngs, stats)
        gen += 1
        best = pop.ranking()[0, 0]
        print(f"gen {gen:2d}: best score {stats.best_sco[0]:12.2f}   "
              f"pop-best f={pop.f[0, best]:12.2f} nu={pop.nu[0, best]:12.2f}")
    return stats.best_sco[0]


tight = run(np.zeros(2), "feasibility rule (eps = 0)")
loose = run(np.array([5000.0, 20000.0]), "fixed generous relaxation")

print(f"\nfinal scores: tight {tight:.2f}   relaxed {loose:.2f}")
print("(the relaxed run trades violation for objective progress)")
