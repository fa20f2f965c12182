"""Constrained-problem core: violation accounting and the epsilon-comparison rule.

A candidate x for a problem with p inequality constraints g_i(x) <= 0 and
q equality constraints h_j(x) = 0 is scored by its aggregated violation

    nu(x) = sum_i max(g_i(x), 0) + sum_j |h_j(x)|

or, under a per-constraint relaxation vector eps >= 0, by the relaxed
variant that zeroes every per-constraint contribution at or below its
threshold.  Candidates are ordered lexicographically: smaller relaxed
violation first, smaller objective second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ProblemDefinitionError(ValueError):
    """A problem evaluator returned malformed output (wrong arity, NaN, inf)."""


class BudgetExhaustedError(RuntimeError):
    """An evaluation was requested beyond the allotted budget."""


@dataclass(frozen=True)
class ConstrainedProblem:
    """A bound-constrained minimization problem with explicit g/h constraints.

    The evaluator takes a batch of candidates as the rows of X (n, dim)
    and returns ``(f, C)``: f of shape (n,) and C of shape (n, n_ineq +
    n_eq), the inequality values first.  It must be deterministic, and a
    row's values must not depend on the other rows.  Candidates outside
    the box are never passed to the evaluator; bound repair is the
    optimizer's job.
    """

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    n_ineq: int
    n_eq: int
    evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    feasible_point: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError("bounds must be vectors of length dim")
        if not np.all(lower < upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.n_ineq < 0 or self.n_eq < 0:
            raise ValueError("constraint counts must be non-negative")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_constraints(self) -> int:
        return self.n_ineq + self.n_eq

    # bench/spans.py patches this name unguarded; it stays until its probe moves
    def evaluate(self, x: np.ndarray,
                 budget: "BudgetCounter | None" = None) -> tuple[float, np.ndarray]:
        """One candidate as a one-row ``evaluate_batch``: its f and its row of C."""
        f, C = self.evaluate_batch(np.asarray(x, dtype=float)[None, :], budget)
        return float(f[0]), C[0]

    def evaluate_batch(self, X: np.ndarray,
                       budget: "BudgetCounter | None" = None) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the rows of X in order while ``budget`` lasts.

        Returns ``(f, C)``, one entry of f and one row of C per evaluated
        row; C holds the n_ineq inequality values, then the n_eq equality
        values.  The evaluator is called once, on the rows the budget
        covers, and the budget is charged once.  A spent budget raises
        BudgetExhaustedError before any call; output of the wrong shape
        raises ProblemDefinitionError naming both shapes, a non-finite
        value one naming its first row, and the batch then charges nothing.
        """
        X = np.asarray(X, dtype=float)
        n = X.shape[0] if budget is None else min(X.shape[0], budget.remaining)
        if n == 0 and X.shape[0]:
            raise BudgetExhaustedError(f"budget of {budget.maxfes} evaluations exhausted")
        f, C = (np.asarray(a, dtype=float) for a in self.evaluator(X[:n]))
        if f.shape != (n,) or C.shape != (n, self.n_constraints):
            raise ProblemDefinitionError(
                f"{self.name}: evaluator returned f {f.shape}, C {C.shape} for {n} rows, "
                f"declared f {(n,)}, C {(n, self.n_constraints)} "
                f"({self.n_ineq} inequality / {self.n_eq} equality)")
        bad = ~(np.isfinite(f) & np.all(np.isfinite(C), axis=1))
        if bad.any():
            k = int(np.argmax(bad))
            raise ProblemDefinitionError(f"{self.name}: row {k}: non-finite output at x={X[k]!r}")
        if budget is not None:
            budget.spend(n)
        return f, C


class BudgetCounter:
    """Hard cap on evaluations; every evaluated candidate costs exactly one unit."""

    def __init__(self, maxfes: int):
        if maxfes < 0:
            raise ValueError("maxfes must be non-negative")
        self.maxfes = int(maxfes)
        self.fes = 0

    @property
    def remaining(self) -> int:
        return self.maxfes - self.fes

    @property
    def exhausted(self) -> bool:
        return self.fes >= self.maxfes

    def spend(self, k: int = 1) -> None:
        if k > self.remaining:
            raise BudgetExhaustedError(f"budget of {self.maxfes} evaluations exhausted")
        self.fes += k


def epsilon_vector(values, m: int | None = None) -> np.ndarray:
    """Validate a per-constraint relaxation vector (non-negative, finite)."""
    eps = np.atleast_1d(np.asarray(values, dtype=float))
    if m is not None and eps.shape != (m,):
        raise ValueError(f"epsilon vector must have length {m}, got shape {eps.shape}")
    if not np.all(np.isfinite(eps)) or np.any(eps < 0):
        raise ValueError("epsilon entries must be finite and >= 0")
    return eps


def violations(C: np.ndarray, n_ineq: int) -> np.ndarray:
    """Exact violation of every row of a constraint batch, the n_ineq
    inequalities first: the positive inequality excess plus |h|."""
    return np.sum(np.maximum(C[:, :n_ineq], 0.0), axis=1) + np.sum(np.abs(C[:, n_ineq:]), axis=1)


def relaxed_violations(C: np.ndarray, n_ineq: int, eps: np.ndarray) -> np.ndarray:
    """Violation of every row with per-constraint thresholds zeroed out.

    An inequality contributes g_i only when g_i > eps_i; an equality
    contributes |h_j| only when |h_j| > eps_{n_ineq+j}.  A value exactly at
    its threshold is zeroed.
    """
    eps = epsilon_vector(eps, C.shape[1])
    g, h_abs = C[:, :n_ineq], np.abs(C[:, n_ineq:])
    return (np.sum(np.where(g > eps[:n_ineq], g, 0.0), axis=1)
            + np.sum(np.where(h_abs > eps[n_ineq:], h_abs, 0.0), axis=1))


def feasible_rows(C: np.ndarray, n_ineq: int, delta_acc: float = 1e-3) -> np.ndarray:
    """Feasibility of every row at accuracy delta_acc: every g <= delta_acc
    and every |h| <= delta_acc."""
    if delta_acc <= 0:
        raise ValueError("delta_acc must be positive")
    return (np.all(C[:, :n_ineq] <= delta_acc, axis=1)
            & np.all(np.abs(C[:, n_ineq:]) <= delta_acc, axis=1))


def eps_compare(a: tuple[float, float], b: tuple[float, float]) -> int:
    """Order two (objective, relaxed violation) pairs lexicographically.

    Violations compare first, objectives break ties.  Returns -1 when a is
    better, +1 when b is better, 0 on an exact tie.  Both pairs must carry
    violations computed under the same relaxation vector.
    """
    f_a, nu_a = a
    f_b, nu_b = b
    if nu_a != nu_b:
        return -1 if nu_a < nu_b else 1
    if f_a != f_b:
        return -1 if f_a < f_b else 1
    return 0
