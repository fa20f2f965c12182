"""Walkthrough: violation accounting and the epsilon-comparison rule.

Shows how raw constraint values aggregate into a violation score, how a
relaxation vector zeroes small violations, and how two candidates are
ordered (violations first, objective on ties).
"""
import numpy as np

from rlrelax import eps_compare
from rlrelax.cop import relaxed_violations, row_accounting

# a candidate with one inequality (g <= 0 feasible) and one equality (h = 0):
# its objective and its row of constraint values, inequalities first; the
# functions below take a batch of such rows and return one value per row;
# row_accounting returns each row's exact violation, relaxed violation and
# feasibility at once
f, C = 2.5, np.array([[0.4, -0.05]])
print("objective        :", f)
print("raw constraints  : g =", C[0, :1], " h =", C[0, 1:])
nu, _, _ = row_accounting(C, 1)
print("exact violation  :", nu[0])  # 0.4 + |−0.05| = 0.45

# relax both constraints at 0.1: the equality residual drops out
eps = np.array([0.1, 0.1])
print("relaxed at 0.1   :", relaxed_violations(C, 1, eps)[0])  # only g remains

# a generous relaxation hides everything
print("relaxed at 1.0   :", relaxed_violations(C, 1, np.array([1.0, 1.0]))[0])

# comparison: violations dominate, objective breaks ties
nearly_feasible = (99.0, 0.1)   # poor objective, small violation
good_but_violated = (0.0, 0.5)  # great objective, larger violation
winner = eps_compare(nearly_feasible, good_but_violated)
print("\n(f=99, nu=0.1) vs (f=0, nu=0.5) ->", "first wins" if winner == -1 else "second wins")

tied_violations = eps_compare((1.0, 0.0), (2.0, 0.0))
print("(f=1, nu=0) vs (f=2, nu=0)      ->", "first wins" if tied_violations == -1 else "second wins")

# the score used for reporting: objective plus violation, with the
# violation forgiven inside the feasibility accuracy of 1e-3
f, C = np.array([4.0, 4.0]), np.array([[9e-4], [2.0]])  # almost feasible, truly violated
nu, _, feasible = row_accounting(C, 1)
score = np.where(feasible, f, f + nu)
print("\nfeasible within accuracy:", feasible[0], " score:", score[0])
print("violated:                ", feasible[1], "score:", score[1])
