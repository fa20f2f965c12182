"""Constrained-problem core: violation accounting and the epsilon-comparison rule.

A candidate x for a problem with p inequality constraints g_i(x) <= 0 and
q equality constraints h_j(x) = 0 has the violation terms

    V(x) = [max(g_1(x), 0), ..., max(g_p(x), 0) | |h_1(x)|, ..., |h_q(x)|]

and is scored by its aggregated violation nu(x) = sum_i V_i(x), or, under a
per-constraint relaxation vector eps >= 0, by the relaxed variant that
zeroes every term at or below its threshold.  Both sum the p inequality
terms and the q equality terms apart and add the two sums, so a row's
result is bitwise that of summing max(g, 0) and |h| separately.
Candidates are ordered lexicographically: smaller relaxed violation first,
smaller objective second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

DELTA_ACC_DEFAULT = 1e-3  # feasibility accuracy: every g and every |h| at most this


class ProblemDefinitionError(ValueError):
    """An evaluator's malformed output (wrong arity, NaN, inf), or a batch of the wrong width."""


class BudgetExhaustedError(RuntimeError):
    """An evaluation was requested beyond the allotted budget."""


@dataclass(frozen=True)
class ConstrainedProblem:
    """A bound-constrained minimization problem with explicit g/h constraints.

    The evaluator takes a batch of candidates as the rows of X (n, dim)
    and returns ``(f, C)``: f of shape (n,) and C of shape (n, n_ineq +
    n_eq), the inequality values first.  It must be deterministic, and a
    row's values must not depend on the other rows.  Candidates outside
    the box are never passed to the evaluator; bound repair and charging
    the evaluation budget are the optimizer's job.
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
        if not (lower < upper).all():
            raise ValueError("lower bounds must be strictly below upper bounds")
        if self.n_ineq < 0 or self.n_eq < 0:
            raise ValueError("constraint counts must be non-negative")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def n_constraints(self) -> int:
        return self.n_ineq + self.n_eq

    # bench/spans.py patches this name unguarded; it stays until its probe moves
    def evaluate(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """One candidate as a one-row ``evaluate_batch``: its f and its row of C."""
        f, C = self.evaluate_batch(np.asarray(x, dtype=float)[None, :])
        return float(f[0]), C[0]

    def evaluate_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the rows of X in order, with one evaluator call.

        Returns ``(f, C)``, one entry of f and one row of C per row of X;
        C holds the n_ineq inequality values, then the n_eq equality
        values.  A batch that is not (n, dim), and output of the wrong shape,
        raise ProblemDefinitionError naming both shapes, a non-finite value
        one naming its first row.  The optimizer charges its BudgetCounter
        for the rows it evaluates.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ProblemDefinitionError(f"{self.name}: batch shape {X.shape} for dim {self.dim}")
        n = X.shape[0]
        f, C = (np.asarray(a, dtype=float) for a in self.evaluator(X))
        if f.shape != (n,) or C.shape != (n, self.n_constraints):
            raise ProblemDefinitionError(
                f"{self.name}: evaluator returned f {f.shape}, C {C.shape} for {n} rows, "
                f"declared f {(n,)}, C {(n, self.n_constraints)} "
                f"({self.n_ineq} inequality / {self.n_eq} equality)")
        if not (np.isfinite(f).all() and np.isfinite(C).all()):
            k = int(np.argmax(~(np.isfinite(f) & np.isfinite(C).all(1))))
            raise ProblemDefinitionError(f"{self.name}: row {k}: non-finite output at x={X[k]!r}")
        return f, C


class BudgetCounter:
    """Hard cap on evaluations; every evaluated candidate costs exactly one
    unit, which the optimizer spends for each batch it evaluates."""

    def __init__(self, maxfes: int):
        if not isinstance(maxfes, Integral) or maxfes < 0:  # numpy integers too
            raise ValueError(f"maxfes must be a non-negative integer, got {maxfes!r}")
        self.maxfes = int(maxfes)
        self.fes = 0

    @property
    def remaining(self) -> int:
        return self.maxfes - self.fes

    @property
    def exhausted(self) -> bool:
        return self.fes >= self.maxfes

    def spend(self, k: int = 1) -> None:
        if not k >= 0:  # NaN too: it would leave the budget never exhausted
            raise ValueError(f"cannot spend {k} evaluations: the count must be >= 0")
        if not isinstance(k, Integral):  # a float too, even 3.0
            raise ValueError(f"cannot spend {k!r} evaluations: the count must be an integer")
        if k > self.remaining:
            raise BudgetExhaustedError(f"budget of {self.maxfes} evaluations exhausted")
        self.fes += int(k)


def epsilon_vector(values, m: int | None = None) -> np.ndarray:
    """Validate a per-constraint relaxation vector, or a stack of them with
    the constraints last (non-negative, finite)."""
    eps = np.array(values, dtype=float, copy=None, ndmin=1)
    if m is not None and eps.shape[-1:] != (m,):
        raise ValueError(f"epsilon vector must have length {m}, got shape {eps.shape}")
    if not np.isfinite(eps).all() or (eps < 0).any():
        raise ValueError("epsilon entries must be finite and >= 0")
    return eps


def violation_terms(C: np.ndarray, n_ineq: int) -> np.ndarray:
    """Every row's violation terms V = [max(g, 0) | |h|] from its raw
    constraint values C (..., p+q), the p inequalities first."""
    V = np.abs(C)
    np.maximum(C[..., :n_ineq], 0.0, out=V[..., :n_ineq])
    return V


def relaxed_violations(C: np.ndarray, n_ineq: int, eps: np.ndarray) -> np.ndarray:
    """Violation of every row with per-constraint thresholds zeroed out.

    An inequality contributes g_i only when g_i > eps_i; an equality
    contributes |h_j| only when |h_j| > eps_{n_ineq+j}.  A value exactly at
    its threshold is zeroed.  A stacked C (R, N, p+q) takes one eps row per run.
    """
    return relaxed_rows(violation_terms(C, n_ineq), n_ineq, epsilon_vector(eps, C.shape[-1]))


def relaxed_rows(V: np.ndarray, n_ineq: int, eps: np.ndarray) -> np.ndarray:
    """relaxed_violations of a batch's violation terms V, under an eps that
    epsilon_vector returned: the kept inequality and equality terms summed
    apart, then added."""
    kept = np.where(V > eps[..., None, :], V, 0.0)
    return kept[..., :n_ineq].sum(-1) + kept[..., n_ineq:].sum(-1)


def term_accounting(V: np.ndarray, n_ineq: int, eps: np.ndarray | None = None,
                    delta_acc: float = DELTA_ACC_DEFAULT):
    """row_accounting of a batch's violation terms V."""
    if not delta_acc > 0:
        raise ValueError("delta_acc must be positive")
    nu = V[..., :n_ineq].sum(-1) + V[..., n_ineq:].sum(-1)
    return (nu, nu if eps is None else relaxed_rows(V, n_ineq, eps),
            (V <= delta_acc).all(-1))


def row_accounting(C: np.ndarray, n_ineq: int, eps: np.ndarray | None = None,
                   delta_acc: float = DELTA_ACC_DEFAULT):
    """Every row's exact violation, relaxed violation (the exact one when eps
    is None, else an eps epsilon_vector returned) and feasibility, from one
    violation_terms of C."""
    return term_accounting(violation_terms(C, n_ineq), n_ineq, eps, delta_acc)


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
