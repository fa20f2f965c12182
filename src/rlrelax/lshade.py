"""Success-history adaptive differential evolution with epsilon-lexicographic
survivor selection.

One generation: for every member, sample (F, CR) from the success-history
memory, build a current-to-pbest/1 donor against the population plus an
archive of replaced parents, binomial crossover with midpoint bound repair,
then keep whichever of parent/trial wins under eps_compare at the currently
active relaxation vector (ties keep the parent).  Linear population size
reduction is available behind a flag and off by default.

generation_step makes the random draws per member and does the arithmetic
over the whole population.  The same steps for one member, the reference
generation_step is tested against bit for bit, are in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cop import (BudgetCounter, ConstrainedProblem, eps_compare, feasible_rows,
                  relaxed_violations, violations)

H_MEMORY = 5         # success-history slots
P_BEST_RATE = 0.11   # fraction of the population eligible as pbest
N_MIN = 4            # smallest population current-to-pbest/1 can run on


_ROW_FIELDS = ("x", "f", "C", "nu", "nu_eps", "feasible")


@dataclass
class Population:
    """The members as row-aligned arrays, one row per member.

    ``x`` (N, D) positions, ``f`` (N,) objectives, ``C`` (N, p+q) raw
    constraint values with the p inequalities first, ``nu`` the exact and
    ``nu_eps`` the relaxed violation under the active epsilon, ``feasible``
    the mask at the run's delta_acc.  The archive holds the positions of
    replaced parents.
    """

    x: np.ndarray
    f: np.ndarray
    C: np.ndarray
    nu: np.ndarray
    nu_eps: np.ndarray
    feasible: np.ndarray
    n_ineq: int
    archive: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def evaluated(cls, x, f, C, n_ineq: int, delta_acc: float = 1e-3,
                  eps: np.ndarray | None = None) -> "Population":
        """Rows from evaluator output; nu_eps is nu when no epsilon is given."""
        nu = violations(C, n_ineq)
        return cls(x=x, f=f, C=C, nu=nu,
                   nu_eps=nu if eps is None else relaxed_violations(C, n_ineq, eps),
                   feasible=feasible_rows(C, n_ineq, delta_acc), n_ineq=n_ineq)

    @property
    def size(self) -> int:
        return self.f.size

    def ranking(self) -> np.ndarray:
        """Member indices best first by (nu_eps, f); ties keep index order."""
        return np.lexsort((self.f, self.nu_eps))

    def keep(self, rows) -> None:
        """Keep only the given rows, in the given order."""
        for name in _ROW_FIELDS:
            setattr(self, name, getattr(self, name)[rows])

    def replace(self, rows, other: "Population") -> None:
        """Overwrite the given rows with the same rows of ``other``."""
        for name in _ROW_FIELDS:
            getattr(self, name)[rows] = getattr(other, name)[rows]


@dataclass
class SuccessHistory:
    """Circular (F, CR) memories; NaN in m_cr marks the terminal-CR state."""

    m_f: np.ndarray
    m_cr: np.ndarray
    k: int = 0

    @classmethod
    def fresh(cls, h: int = H_MEMORY) -> "SuccessHistory":
        return cls(m_f=np.full(h, 0.5), m_cr=np.full(h, 0.5))


@dataclass
class RunStats:
    """The state of one run: bookkeeping over every evaluation, the budget,
    and the reference values the features and the reward read."""

    delta_acc: float = 1e-3
    f_gbest: float = math.inf        # best objective seen, any feasibility
    f_max: float = -math.inf         # worst objective seen
    best_feasible_f: float = math.inf
    best_sco: float = math.inf       # best f + violation, the violation zeroed if feasible
    budget: BudgetCounter | None = None  # holds fes and maxfes
    # population-best objective at generation 0; equal to f_gbest right
    # after initialization, so it is also the reward's f_gbest_0
    f_pbest_0: float = math.nan
    nu_top5_0: float = math.nan      # top-5 violation mean at generation 0
    nu_top5: float = math.nan        # the same for the current population
    prev_action: float = 1.0         # last relaxation level, normalized to [0, 1]

    def observe(self, batch: Population) -> None:
        """Fold in a batch whose feasibility mask is taken at this delta_acc."""
        f, ok = batch.f, batch.feasible
        self.f_gbest = min(self.f_gbest, float(np.min(f)))
        self.f_max = max(self.f_max, float(np.max(f)))
        if ok.any():
            self.best_feasible_f = min(self.best_feasible_f, float(np.min(f[ok])))
        self.best_sco = min(self.best_sco, float(np.min(np.where(ok, f, f + batch.nu))))


def init_population(problem: ConstrainedProblem, n: int, rng: np.random.Generator,
                    budget: BudgetCounter, stats: RunStats | None = None) -> Population:
    """Sample n points uniformly in the box and evaluate them all."""
    if n < N_MIN:
        raise ValueError(f"population size must be >= {N_MIN}, got {n}")
    if budget.remaining < n:
        raise RuntimeError(
            f"budget of {budget.remaining} evaluations cannot initialize n={n}"
        ) from None
    stats = stats if stats is not None else RunStats()
    x = rng.uniform(problem.lower, problem.upper, size=(n, problem.dim))
    f, C = problem.evaluate_batch(x, budget)
    pop = Population.evaluated(x, f, C, problem.n_ineq, stats.delta_acc)
    stats.observe(pop)
    return pop


def refresh_relaxed(pop: Population, eps: np.ndarray) -> None:
    """Recompute every relaxed violation against a new epsilon."""
    pop.nu_eps = relaxed_violations(pop.C, pop.n_ineq, eps)


# bench/spans.py patches this name unguarded; it stays until its probe moves
def select_survivor(parent: tuple[float, float],
                    trial: tuple[float, float]) -> tuple[tuple[float, float], bool, float]:
    """Keep the eps_compare winner of two (objective, relaxed violation)
    pairs; ties keep the parent.

    Returns (survivor, success, improvement weight).  The weight is the
    drop in the active sort key: violation decrease when the relaxed
    violations differ, objective decrease otherwise.
    """
    if eps_compare(trial, parent) == -1:
        (f_p, nu_p), (f_t, nu_t) = parent, trial
        return trial, True, (nu_p - nu_t if nu_t != nu_p else f_p - f_t)
    return parent, False, 0.0


def update_memory(hist: SuccessHistory, f_vals, cr_vals, weights) -> None:
    """Write weighted means of the successful (F, CR) samples into slot k.

    F uses the weighted Lehmer mean, CR the weighted arithmetic mean; a
    slot goes terminal (NaN) once the successful CRs are all zero, after
    which it keeps emitting CR = 0.  No successes leave the memory alone.
    """
    f_vals = np.asarray(f_vals, dtype=float)
    cr_vals = np.asarray(cr_vals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if f_vals.size == 0:
        return
    w = weights / max(np.sum(weights), 1e-300)
    hist.m_f[hist.k] = np.sum(w * f_vals * f_vals) / np.sum(w * f_vals)
    if np.isnan(hist.m_cr[hist.k]) or np.max(cr_vals) <= 0.0:
        hist.m_cr[hist.k] = np.nan
    else:
        hist.m_cr[hist.k] = np.sum(w * cr_vals)
    hist.k = (hist.k + 1) % hist.m_f.size


def lpsr_target_size(fes: int, maxfes: int, n_init: int, n_min: int = N_MIN) -> int:
    """Linear population size schedule from n_init down to n_min."""
    return int(round(n_init - (n_init - n_min) * fes / maxfes))


def episode_steps(maxfes: int, n_pop: int, lpsr: bool = False, n_min: int = N_MIN) -> int:
    """Generations one run takes after initialization: each evaluates its
    trials until the budget runs dry, and LPSR shrinks the ones after it."""
    fes, n, steps = n_pop, n_pop, 0
    while fes < maxfes:
        fes = min(fes + n, maxfes)
        steps += 1
        if lpsr:
            n = min(n, max(n_min, lpsr_target_size(fes, maxfes, n_pop, n_min)))
    return steps


def generation_step(pop: Population, problem: ConstrainedProblem, eps: np.ndarray,
                    hist: SuccessHistory, rng: np.random.Generator,
                    budget: BudgetCounter, stats: RunStats | None = None,
                    p_rate: float = P_BEST_RATE, lpsr: bool = False,
                    n_init: int | None = None, n_min: int = N_MIN) -> int:
    """Advance the population by one generation under the given epsilon.

    Trials are generated synchronously from the parent generation, then
    evaluated in order until the budget runs dry; unevaluated trials are
    skipped and their parents survive untouched.  Returns the number of
    trials actually evaluated.  The rng is consumed exactly as by the
    per-member loop of tests/reference.py (sample_f_cr,
    mutate_current_to_pbest and crossover_binomial, then one archive pop
    per overflow), so the results are that reference's bit for bit.
    """
    if budget.exhausted:
        raise RuntimeError("generation_step requires at least one remaining evaluation")
    stats = stats if stats is not None else RunStats()
    refresh_relaxed(pop, eps)
    n, d = pop.x.shape
    ranked = pop.ranking()
    n_best = max(1, math.ceil(p_rate * n))
    pool = n + len(pop.archive)

    # The random draws, in the per-candidate order of the reference's
    # sample_f_cr, mutate_current_to_pbest and crossover_binomial; the
    # arithmetic on them is done below over all candidates at once.
    m_f, terminal = hist.m_f.tolist(), np.isnan(hist.m_cr).tolist()
    f_z, idx = [], []  # (F before clipping, CR's normal draw), (slot, pbest rank, r1, r2, j)
    u_cr = np.empty((n, d))
    for i in range(n):
        r = int(rng.integers(hist.m_f.size))
        f_i = m_f[r] + 0.1 * rng.standard_cauchy()
        while f_i <= 0.0:
            f_i = m_f[r] + 0.1 * rng.standard_cauchy()
        f_z.append((f_i, 0.0 if terminal[r] else rng.standard_normal()))
        pb = int(rng.integers(n_best))
        r1 = int(rng.integers(n))
        while r1 == i:
            r1 = int(rng.integers(n))
        r2 = int(rng.integers(pool))
        while r2 == i or r2 == r1:
            r2 = int(rng.integers(pool))
        rng.random(out=u_cr[i])
        idx.append((r, pb, r1, r2, int(rng.integers(d))))  # j: crossover's forced index

    (f_raw, z), (slot, pb, r1, r2, j) = np.array(f_z).T, np.array(idx).T
    F = np.minimum(f_raw, 1.0)
    CR = np.where(np.isnan(hist.m_cr[slot]), 0.0,
                  np.clip(hist.m_cr[slot] + 0.1 * z, 0.0, 1.0))
    x = pop.x
    x_r2 = np.concatenate([x, np.array(pop.archive).reshape(-1, d)])[r2]
    v = x + F[:, None] * (x[ranked[pb]] - x) + F[:, None] * (x[r1] - x_r2)
    mask = u_cr < CR[:, None]
    mask[np.arange(n), j] = True
    trials_x = np.where(mask, v, x)
    trials_x = np.where(trials_x < problem.lower, (x + problem.lower) / 2.0, trials_x)
    trials_x = np.where(trials_x > problem.upper, (x + problem.upper) / 2.0, trials_x)

    f, C = problem.evaluate_batch(trials_x, budget)
    trials = Population.evaluated(trials_x[:f.size], f, C, pop.n_ineq, stats.delta_acc, eps)
    stats.observe(trials)

    # eps_compare(trial, parent) == -1, with select_survivor's weight
    k = trials.size
    f_p, nu_p = pop.f[:k], pop.nu_eps[:k]
    nu_t = trials.nu_eps
    won = np.flatnonzero((nu_t < nu_p) | ((nu_t == nu_p) & (trials.f < f_p)))
    weight = np.where(nu_t != nu_p, nu_p - nu_t, f_p - trials.f)
    for i in won.tolist():
        pop.archive.append(pop.x[i].copy())  # replace() below writes pop.x in place
        if len(pop.archive) > n:
            pop.archive.pop(int(rng.integers(len(pop.archive))))

    pop.replace(won, trials)
    update_memory(hist, F[won], CR[won], weight[won])

    if lpsr:
        n_target = max(n_min, lpsr_target_size(budget.fes, budget.maxfes,
                                               n_init if n_init is not None else n, n_min))
        if n_target < pop.size:
            pop.keep(np.sort(pop.ranking()[:n_target]))
        while len(pop.archive) > pop.size:
            pop.archive.pop(int(rng.integers(len(pop.archive))))

    return trials.size
