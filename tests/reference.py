"""One-candidate oracles that the tests compare the row-wise program against.

The program computes every step on rows: ``cop.violations``,
``relaxed_violations`` and ``feasible_rows`` over a constraint batch, and
``lshade.generation_step`` over the whole population.  The functions here
are the same definitions for one candidate at a time, written the plain
way: a candidate's ``Evaluation``, its exact and relaxed violation, its
feasibility and its score, and the L-SHADE operators for one member.
``reference_generation`` strings the operators together into the
per-member generation that ``generation_step`` must match bit for bit,
random stream included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rlrelax.cop import ProblemDefinitionError, epsilon_vector
from rlrelax.lshade import (N_MIN, P_BEST_RATE, Population, SuccessHistory, lpsr_target_size,
                            refresh_relaxed, select_survivor, update_memory)


@dataclass(frozen=True)
class Evaluation:
    """One candidate's objective value plus raw constraint values."""

    f: float
    g: np.ndarray  # inequality values, length p; feasible when <= 0
    h: np.ndarray  # equality residuals, length q; feasible when == 0

    def __post_init__(self):
        object.__setattr__(self, "g", np.atleast_1d(np.asarray(self.g, dtype=float)))
        object.__setattr__(self, "h", np.atleast_1d(np.asarray(self.h, dtype=float)))
        object.__setattr__(self, "f", float(self.f))


def evaluation(problem, x) -> Evaluation:
    """One candidate through the problem's one-row view."""
    f, c = problem.evaluate(x)
    return Evaluation(f, c[:problem.n_ineq], c[problem.n_ineq:])


def violation(e: Evaluation) -> float:
    """Exact aggregated violation: positive inequality excess plus |h|."""
    if not (np.all(np.isfinite(e.g)) and np.all(np.isfinite(e.h))):
        raise ProblemDefinitionError("non-finite constraint value")
    return float(np.sum(np.maximum(e.g, 0.0)) + np.sum(np.abs(e.h)))


def relaxed_violation(e: Evaluation, eps: np.ndarray) -> float:
    """Aggregated violation with per-constraint thresholds zeroed out.

    An inequality contributes g_i only when g_i > eps_i; an equality
    contributes |h_j| only when |h_j| > eps_{p+j}.  The first p entries of
    ``eps`` belong to the inequalities.  A value exactly at its threshold
    is zeroed.
    """
    p = e.g.shape[0]
    eps = epsilon_vector(eps, p + e.h.shape[0])
    g_part = np.where(e.g > eps[:p], e.g, 0.0)
    h_abs = np.abs(e.h)
    h_part = np.where(h_abs > eps[p:], h_abs, 0.0)
    return float(np.sum(g_part) + np.sum(h_part))


def is_feasible(e: Evaluation, delta_acc: float = 1e-3) -> bool:
    """Feasibility at accuracy level delta_acc: every g <= delta, |h| <= delta."""
    if delta_acc <= 0:
        raise ValueError("delta_acc must be positive")
    return bool(np.all(e.g <= delta_acc) and np.all(np.abs(e.h) <= delta_acc))


def sco(e: Evaluation, delta_acc: float = 1e-3) -> float:
    """Scoring metric: objective plus violation, with the violation zeroed
    for solutions feasible within delta_acc."""
    if is_feasible(e, delta_acc):
        return e.f
    return e.f + violation(e)


def mutate_current_to_pbest(i: int, xs: np.ndarray, archive: list[np.ndarray],
                            f_i: float, ranked, p_rate: float,
                            rng: np.random.Generator) -> np.ndarray:
    """current-to-pbest/1 donor: v = x_i + F (x_pbest - x_i) + F (x_r1 - x_r2).

    pbest is drawn from the ceil(p_rate * N) best under the active
    comparison order (``ranked``, best first); r1 comes from the
    population ``xs``, r2 from population + archive, with i, r1, r2 distinct.
    """
    n = len(xs)
    n_best = max(1, math.ceil(p_rate * n))
    pbest = xs[ranked[rng.integers(n_best)]]
    r1 = int(rng.integers(n))
    while r1 == i:
        r1 = int(rng.integers(n))
    pool = n + len(archive)
    r2 = int(rng.integers(pool))
    while r2 == i or r2 == r1:
        r2 = int(rng.integers(pool))
    x_r2 = xs[r2] if r2 < n else archive[r2 - n]
    x_i = xs[i]
    return x_i + f_i * (pbest - x_i) + f_i * (xs[r1] - x_r2)


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


def reference_generation(pop, problem, eps, hist, rng, budget, stats, p_rate=P_BEST_RATE,
                         lpsr=False, n_init=None, n_min=N_MIN):
    """One generation as a per-candidate loop over the scalar operators:
    the oracle the array form of generation_step must match bit for bit."""
    refresh_relaxed(pop, eps)
    n = pop.size
    ranked = pop.ranking()
    archive_snapshot = list(pop.archive)
    trials_x = np.empty_like(pop.x)
    params = []
    for i in range(n):
        f_i, cr_i = sample_f_cr(hist, rng)
        v = mutate_current_to_pbest(i, pop.x, archive_snapshot, f_i, ranked, p_rate, rng)
        trials_x[i] = crossover_binomial(pop.x[i], v, cr_i, rng, problem.lower, problem.upper)
        params.append((f_i, cr_i))

    f, C = problem.evaluate_batch(trials_x, budget)
    trials = Population.evaluated(trials_x[:f.size], f, C, pop.n_ineq, stats.delta_acc, eps)
    stats.observe(trials)

    parents = list(zip(pop.f.tolist(), pop.nu_eps.tolist()))
    s_f, s_cr, s_w, won = [], [], [], []
    for i, trial in enumerate(zip(trials.f.tolist(), trials.nu_eps.tolist())):
        _, success, w = select_survivor(parents[i], trial)
        if success:
            won.append(i)
            pop.archive.append(pop.x[i].copy())
            if len(pop.archive) > n:
                pop.archive.pop(int(rng.integers(len(pop.archive))))
            s_f.append(params[i][0])
            s_cr.append(params[i][1])
            s_w.append(w)
    pop.replace(won, trials)
    update_memory(hist, s_f, s_cr, s_w)

    if lpsr:
        n_target = max(n_min, lpsr_target_size(budget.fes, budget.maxfes,
                                               n_init if n_init is not None else n))
        if n_target < pop.size:
            pop.keep(np.sort(pop.ranking()[:n_target]))
        while len(pop.archive) > pop.size:
            pop.archive.pop(int(rng.integers(len(pop.archive))))
    return trials.size
