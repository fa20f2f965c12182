"""Walkthrough: the benchmark registry and its problem families.

Every problem lives in [-100, 100]^D with a hidden shift; synthetic
families certify a feasible point at construction.  Names follow the
patterns `cec12`, `cec14`, `synthetic/<kind>/<seed>`.
"""
import numpy as np

from rlrelax import ProblemRegistry
from rlrelax.cop import row_accounting
from rlrelax.problems import SYNTHETIC_KINDS

registry = ProblemRegistry()


def violation(prob, *points):
    """Exact violation of each point: one row of the problem's batch each."""
    _, C = prob.evaluate_batch(np.array(points))
    return row_accounting(C, prob.n_ineq)[0]


print("synthetic families:", ", ".join(SYNTHETIC_KINDS))
print()

for name in ("cec12", "cec14"):
    prob = registry.lookup(name, 10)
    f, _ = prob.evaluate(prob.feasible_point)
    print(f"{name:8s} dim={prob.dim}  p={prob.n_ineq} q={prob.n_eq}  "
          f"f(feasible point)={f:10.4f}  violation={violation(prob, prob.feasible_point)[0]:.2e}")

print()
rng = np.random.default_rng(0)
for kind in SYNTHETIC_KINDS:
    prob = registry.lookup(f"synthetic/{kind}/0", 10)
    x = rng.uniform(prob.lower, prob.upper)
    nu_feas, nu_rand = violation(prob, prob.feasible_point, x)
    print(f"{prob.name:32s} p={prob.n_ineq} q={prob.n_eq}  "
          f"certified violation={nu_feas:8.1e}  "
          f"random-point violation={nu_rand:12.2f}")

# determinism: the same name always builds the same problem
a = registry.lookup("synthetic/rastrigin-ring/3", 10)
b = registry.lookup("synthetic/rastrigin-ring/3", 10)
x = np.linspace(-40, 40, 10)
print("\nsame name, same instance:", a.evaluate(x)[0] == b.evaluate(x)[0])
