"""Success-history adaptive differential evolution with epsilon-lexicographic
survivor selection.

One generation: for every member, sample (F, CR) from the success-history
memory, build a current-to-pbest/1 donor against the population plus an
archive of replaced parents, binomial crossover with midpoint bound repair,
then keep whichever of parent/trial wins under eps_compare at the currently
active relaxation vector (ties keep the parent).  A run's RunStats record
holds its budget, its success-history memory and its flag for linear
population size reduction (LPSR, off by default), which shrinks the
population linearly from its initial size.

generation_step draws each random quantity once for the whole population,
as one vector, and does the arithmetic on (N, D) arrays.  The draws follow
L-SHADE's distributions (Tanabe & Fukunaga, CEC 2014), not the stream of a
per-member loop; tests/test_lshade.py pins the distributions and
tests/test_digests.py the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import features
from .cop import (DELTA_ACC_DEFAULT, BudgetCounter, ConstrainedProblem, eps_compare,
                  feasible_rows, relaxed_violations, violations)

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
    def evaluated(cls, x, f, C, n_ineq: int, delta_acc: float = DELTA_ACC_DEFAULT,
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
    """The record of one run: its budget, initial population size, LPSR flag
    and success-history memory, the bookkeeping over every evaluation, and
    the reference values the features and the reward read, complete from
    generation 0: init_population sets them, generation_step keeps nu_top5."""

    budget: BudgetCounter            # holds fes and maxfes
    n_init: int                      # initial population size, where LPSR starts
    lpsr: bool = False               # linear population size reduction
    hist: SuccessHistory = field(default_factory=SuccessHistory.fresh)
    delta_acc: float = DELTA_ACC_DEFAULT
    f_gbest: float = math.inf        # best objective seen, any feasibility
    f_max: float = -math.inf         # worst objective seen
    best_sco: float = math.inf       # best f + violation, the violation zeroed if feasible
    f_pbest_0: float = math.nan      # best objective at generation 0, the reward's f_gbest_0
    nu_top5_0: float = math.nan      # top-5 violation mean at generation 0
    nu_top5: float = math.nan        # the same for the current population
    prev_action: float = 1.0         # last relaxation level, normalized to [0, 1]

    def observe(self, batch: Population) -> None:
        """Fold in a batch whose feasibility mask is taken at this delta_acc."""
        f, ok = batch.f, batch.feasible
        self.f_gbest = min(self.f_gbest, float(np.min(f)))
        self.f_max = max(self.f_max, float(np.max(f)))
        self.best_sco = min(self.best_sco, float(np.min(np.where(ok, f, f + batch.nu))))


def init_population(problem: ConstrainedProblem, rng: np.random.Generator,
                    stats: RunStats) -> Population:
    """Sample stats.n_init points in the box, evaluate them, set stats' references."""
    n, budget = stats.n_init, stats.budget
    if n < N_MIN:
        raise ValueError(f"population size must be >= {N_MIN}, got {n}")
    if budget.remaining < n:
        raise RuntimeError(
            f"budget of {budget.remaining} evaluations cannot initialize n={n}"
        ) from None
    x = rng.uniform(problem.lower, problem.upper, size=(n, problem.dim))
    f, C = problem.evaluate_batch(x, budget)
    pop = Population.evaluated(x, f, C, problem.n_ineq, stats.delta_acc)
    stats.observe(pop)
    stats.nu_top5 = stats.nu_top5_0 = features.top5_violation_mean(pop.nu)
    stats.f_pbest_0 = float(np.min(pop.f))
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


def lpsr_target_size(fes: int, maxfes: int, n_init: int) -> int:
    """Linear population size schedule from n_init down to N_MIN."""
    return max(N_MIN, int(round(n_init - (n_init - N_MIN) * fes / maxfes)))


def episode_steps(maxfes: int, n_pop: int, lpsr: bool = False) -> int:
    """Generations one run takes after initialization: each evaluates its
    trials until the budget runs dry, and LPSR shrinks the ones after it."""
    fes, n, steps = n_pop, n_pop, 0
    while fes < maxfes:
        fes = min(fes + n, maxfes)
        steps += 1
        if lpsr:
            n = min(n, lpsr_target_size(fes, maxfes, n_pop))
    return steps


class Draws(NamedTuple):
    """One generation's random quantities, entry i belonging to member i."""

    slot: np.ndarray   # success-history slot
    F: np.ndarray      # scale factor in (0, 1]
    CR: np.ndarray     # crossover rate in [0, 1], 0 on a terminal slot
    pbest: np.ndarray  # rank of the pbest among the ceil(P_BEST_RATE * n) best
    r1: np.ndarray     # population index other than i
    r2: np.ndarray     # population-then-archive index other than i and r1
    u: np.ndarray      # (n, d) crossover uniforms
    j: np.ndarray      # crossover's forced donor coordinate


def draw_generation(hist: SuccessHistory, n: int, n_archive: int, d: int,
                    rng: np.random.Generator) -> Draws:
    """Draw a generation's random quantities as eight vectors, in this order:
    memory slots, F's Cauchy draws (redrawn only where F <= 0), CR's normal
    draws (one per member, unused on a terminal slot), pbest ranks, r1, r2,
    crossover's uniforms and its forced coordinates."""
    slot = rng.integers(hist.m_f.size, size=n)
    f_raw = hist.m_f[slot] + 0.1 * rng.standard_cauchy(n)
    redraw = np.flatnonzero(f_raw <= 0.0)
    while redraw.size:
        f_raw[redraw] = hist.m_f[slot[redraw]] + 0.1 * rng.standard_cauchy(redraw.size)
        redraw = redraw[f_raw[redraw] <= 0.0]
    z = rng.standard_normal(n)
    CR = np.where(np.isnan(hist.m_cr[slot]), 0.0, np.clip(hist.m_cr[slot] + 0.1 * z, 0.0, 1.0))
    pbest = rng.integers(max(1, math.ceil(P_BEST_RATE * n)), size=n)
    # r1 and r2 are drawn from ranges short by the excluded indices, then
    # stepped past each excluded index in increasing order
    i = np.arange(n)
    r1 = rng.integers(n - 1, size=n)
    r1 += r1 >= i
    r2 = rng.integers(n + n_archive - 2, size=n)
    r2 += r2 >= np.minimum(i, r1)
    r2 += r2 >= np.maximum(i, r1)
    u = rng.random((n, d))
    j = rng.integers(d, size=n)
    return Draws(slot, np.minimum(f_raw, 1.0), CR, pbest, r1, r2, u, j)


def generation_step(pop: Population, problem: ConstrainedProblem, eps: np.ndarray,
                    rng: np.random.Generator, stats: RunStats) -> int:
    """Advance the population by one generation under the given epsilon.

    Trials are generated synchronously from the parent generation, then
    evaluated in order until stats.budget runs dry; unevaluated trials are
    skipped and their parents survive untouched.  Returns the number of
    trials actually evaluated.  With stats.lpsr the population then shrinks
    to lpsr_target_size from stats.n_init; last, stats.nu_top5 is refreshed.

    The random quantities come from draw_generation on stats.hist; the
    archive's upkeep then pops one random entry per overflow, winner by winner.
    """
    budget = stats.budget
    if budget.exhausted:
        raise RuntimeError("generation_step requires at least one remaining evaluation")
    refresh_relaxed(pop, eps)
    n, d = pop.x.shape
    ranked = pop.ranking()
    draws = draw_generation(stats.hist, n, len(pop.archive), d, rng)
    F = draws.F[:, None]
    x = pop.x
    x_r2 = np.concatenate([x, np.array(pop.archive).reshape(-1, d)])[draws.r2]
    v = x + F * (x[ranked[draws.pbest]] - x) + F * (x[draws.r1] - x_r2)
    mask = draws.u < draws.CR[:, None]
    mask[np.arange(n), draws.j] = True
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
    update_memory(stats.hist, draws.F[won], draws.CR[won], weight[won])

    if stats.lpsr:
        n_target = lpsr_target_size(budget.fes, budget.maxfes, stats.n_init)
        if n_target < pop.size:
            pop.keep(np.sort(pop.ranking()[:n_target]))
        while len(pop.archive) > pop.size:
            pop.archive.pop(int(rng.integers(len(pop.archive))))

    stats.nu_top5 = features.top5_violation_mean(pop.nu)
    return trials.size
