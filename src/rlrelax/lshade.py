"""Success-history adaptive differential evolution with epsilon-lexicographic
survivor selection.

One generation: for every member, sample (F, CR) from the success-history
memory, build a current-to-pbest/1 donor against the population plus an
archive of replaced parents, binomial crossover with midpoint bound repair,
then keep whichever of parent/trial wins under eps_compare at the currently
active relaxation vector (ties keep the parent).  Linear population size
reduction is available behind a flag and off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cop import (
    BudgetCounter,
    ConstrainedProblem,
    Evaluation,
    eps_compare,
    is_feasible,
    relaxed_violation,
    sco,
    violation,
)

H_MEMORY = 5         # success-history slots
P_BEST_RATE = 0.11   # fraction of the population eligible as pbest
N_MIN = 4            # smallest population current-to-pbest/1 can run on


@dataclass
class Individual:
    x: np.ndarray
    eval: Evaluation
    nu: float        # exact violation, fixed once evaluated
    nu_eps: float    # relaxed violation under the active epsilon

    @classmethod
    def from_evaluation(cls, x: np.ndarray, e: Evaluation, eps: np.ndarray | None = None) -> "Individual":
        nu = violation(e)
        nu_eps = nu if eps is None else relaxed_violation(e, eps)
        return cls(x=np.asarray(x, dtype=float), eval=e, nu=nu, nu_eps=nu_eps)

    def sort_key(self) -> tuple[float, float]:
        return (self.nu_eps, self.eval.f)


@dataclass
class Population:
    members: list[Individual]
    archive: list[Individual] = field(default_factory=list)
    t: int = 0

    @property
    def size(self) -> int:
        return len(self.members)


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
    best_sco: float = math.inf
    budget: BudgetCounter | None = None  # holds fes and maxfes
    # population-best objective at generation 0; equal to f_gbest right
    # after initialization, so it is also the reward's f_gbest_0
    f_pbest_0: float = math.nan
    nu_top5_0: float = math.nan      # top-5 violation mean at generation 0
    prev_action: float = 1.0         # last relaxation level, normalized to [0, 1]

    def observe(self, e: Evaluation) -> None:
        self.f_gbest = min(self.f_gbest, e.f)
        self.f_max = max(self.f_max, e.f)
        if is_feasible(e, self.delta_acc):
            self.best_feasible_f = min(self.best_feasible_f, e.f)
        self.best_sco = min(self.best_sco, sco(e, self.delta_acc))


def init_population(problem: ConstrainedProblem, n: int, rng: np.random.Generator,
                    budget: BudgetCounter, stats: RunStats | None = None) -> Population:
    """Sample n points uniformly in the box and evaluate them all."""
    if n < N_MIN:
        raise ValueError(f"population size must be >= {N_MIN}, got {n}")
    if budget.remaining < n:
        raise RuntimeError(
            f"budget of {budget.remaining} evaluations cannot initialize n={n}"
        ) from None
    members = []
    for _ in range(n):
        x = rng.uniform(problem.lower, problem.upper)
        e = problem.evaluate(x, budget)
        if stats is not None:
            stats.observe(e)
        members.append(Individual.from_evaluation(x, e))
    return Population(members=members)


def refresh_relaxed(pop: Population, eps: np.ndarray) -> None:
    """Recompute every cached relaxed violation against a new epsilon."""
    for ind in pop.members:
        ind.nu_eps = relaxed_violation(ind.eval, eps)


def mutate_current_to_pbest(i: int, members: list[Individual], archive: list[Individual],
                            f_i: float, ranked: list[int], p_rate: float,
                            rng: np.random.Generator) -> np.ndarray:
    """current-to-pbest/1 donor: v = x_i + F (x_pbest - x_i) + F (x_r1 - x_r2).

    pbest is drawn from the ceil(p_rate * N) best under the active
    comparison order (``ranked``, best first); r1 comes from the
    population, r2 from population + archive, with i, r1, r2 distinct.
    """
    n = len(members)
    n_best = max(1, math.ceil(p_rate * n))
    pbest = members[ranked[rng.integers(n_best)]].x
    r1 = int(rng.integers(n))
    while r1 == i:
        r1 = int(rng.integers(n))
    pool = n + len(archive)
    r2 = int(rng.integers(pool))
    while r2 == i or r2 == r1:
        r2 = int(rng.integers(pool))
    x_r2 = members[r2].x if r2 < n else archive[r2 - n].x
    x_i = members[i].x
    return x_i + f_i * (pbest - x_i) + f_i * (members[r1].x - x_r2)


def crossover_binomial(x_i: np.ndarray, v: np.ndarray, cr_i: float,
                       rng: np.random.Generator,
                       lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Binomial crossover with one forced donor index, then midpoint repair.

    Out-of-bounds trial components are pulled to the midpoint between the
    parent component and the violated bound.
    """
    d = x_i.size
    mask = rng.random(d) < cr_i
    mask[rng.integers(d)] = True
    u = np.where(mask, v, x_i)
    u = np.where(u < lower, (x_i + lower) / 2.0, u)
    u = np.where(u > upper, (x_i + upper) / 2.0, u)
    return u


def select_survivor(parent: Individual, trial: Individual) -> tuple[Individual, bool, float]:
    """Keep the eps_compare winner; ties keep the parent.

    Returns (survivor, success, improvement weight).  The weight is the
    drop in the active sort key: violation decrease when the relaxed
    violations differ, objective decrease otherwise.
    """
    if eps_compare((trial.eval.f, trial.nu_eps), (parent.eval.f, parent.nu_eps)) == -1:
        if trial.nu_eps != parent.nu_eps:
            w = parent.nu_eps - trial.nu_eps
        else:
            w = parent.eval.f - trial.eval.f
        return trial, True, w
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


def sample_f_cr(hist: SuccessHistory, rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (F, CR) pair from a random memory slot.

    F ~ Cauchy(m_f[r], 0.1), resampled while <= 0 and clipped to 1;
    CR ~ Normal(m_cr[r], 0.1) clipped to [0, 1], or 0 on a terminal slot.
    """
    r = int(rng.integers(hist.m_f.size))
    f_i = hist.m_f[r] + 0.1 * rng.standard_cauchy()
    while f_i <= 0.0:
        f_i = hist.m_f[r] + 0.1 * rng.standard_cauchy()
    f_i = min(f_i, 1.0)
    if np.isnan(hist.m_cr[r]):
        cr_i = 0.0
    else:
        cr_i = float(np.clip(hist.m_cr[r] + 0.1 * rng.standard_normal(), 0.0, 1.0))
    return float(f_i), cr_i


def lpsr_target_size(fes: int, maxfes: int, n_init: int, n_min: int = N_MIN) -> int:
    """Linear population size schedule from n_init down to n_min."""
    return int(round(n_init - (n_init - n_min) * fes / maxfes))


def generation_step(pop: Population, problem: ConstrainedProblem, eps: np.ndarray,
                    hist: SuccessHistory, rng: np.random.Generator,
                    budget: BudgetCounter, stats: RunStats | None = None,
                    p_rate: float = P_BEST_RATE, lpsr: bool = False,
                    n_init: int | None = None, n_min: int = N_MIN) -> int:
    """Advance the population by one generation under the given epsilon.

    Trials are generated synchronously from the parent generation, then
    evaluated in order until the budget runs dry; unevaluated trials are
    skipped and their parents survive untouched.  Returns the number of
    trials actually evaluated.
    """
    if budget.exhausted:
        raise RuntimeError("generation_step requires at least one remaining evaluation")
    refresh_relaxed(pop, eps)
    members = pop.members
    n = len(members)
    ranked = sorted(range(n), key=lambda j: members[j].sort_key())
    archive_snapshot = list(pop.archive)

    trials_x = []
    params = []
    for i in range(n):
        f_i, cr_i = sample_f_cr(hist, rng)
        v = mutate_current_to_pbest(i, members, archive_snapshot, f_i, ranked, p_rate, rng)
        u = crossover_binomial(members[i].x, v, cr_i, rng, problem.lower, problem.upper)
        trials_x.append(u)
        params.append((f_i, cr_i))

    survivors = list(members)
    s_f, s_cr, s_w = [], [], []
    evaluated = 0
    for i in range(n):
        if budget.exhausted:
            break
        e = problem.evaluate(trials_x[i], budget)
        evaluated += 1
        if stats is not None:
            stats.observe(e)
        trial = Individual.from_evaluation(trials_x[i], e, eps)
        survivor, success, w = select_survivor(members[i], trial)
        survivors[i] = survivor
        if success:
            pop.archive.append(members[i])
            if len(pop.archive) > n:
                pop.archive.pop(int(rng.integers(len(pop.archive))))
            s_f.append(params[i][0])
            s_cr.append(params[i][1])
            s_w.append(w)

    pop.members = survivors
    pop.t += 1
    update_memory(hist, s_f, s_cr, s_w)

    if lpsr:
        n_target = max(n_min, lpsr_target_size(budget.fes, budget.maxfes,
                                               n_init if n_init is not None else n, n_min))
        if n_target < len(pop.members):
            order = sorted(range(len(pop.members)), key=lambda j: pop.members[j].sort_key())
            keep = sorted(order[:n_target])
            pop.members = [pop.members[j] for j in keep]
        while len(pop.archive) > len(pop.members):
            pop.archive.pop(int(rng.integers(len(pop.archive))))

    return evaluated
