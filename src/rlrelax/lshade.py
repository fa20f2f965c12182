"""Success-history adaptive differential evolution with epsilon-lexicographic
survivor selection.

One generation: for every member, sample (F, CR) from the success-history
memory, build a current-to-pbest/1 donor against the population plus an
archive of replaced parents, binomial crossover with midpoint bound repair,
then keep whichever of parent/trial wins under eps_compare at the currently
active relaxation vector (ties keep the parent).  Linear population size
reduction (LPSR, off by default) shrinks the population linearly.  Each
member keeps its violation terms V = [max(g, 0) | |h|] in place of its raw
constraint values, so the new epsilon of each generation re-scores the
population with one where and two sums (see cop.term_accounting).

Everything carries a leading run axis: R paired runs of one problem share
their budget, so they advance in lockstep as one (R, N, D) population.
Each run keeps its generator and draw order, its archive walk, its r2 rows
and one reduction call over its slice of the winners; the evaluator, the
row-wise accounting, the flat gathers of the donors and the winners and the
memory arithmetic run once over the stack.
generation_step draws in one stacked draw_generation call, in
which each run makes its vector calls on its own generator, in order.  The
draws follow L-SHADE's distributions (Tanabe & Fukunaga, CEC 2014), not
the stream of a per-member loop; tests/test_lshade.py pins the
distributions and tests/test_digests.py the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import features
from .cop import (DELTA_ACC_DEFAULT, BudgetCounter, ConstrainedProblem, epsilon_vector,
                  eps_compare, relaxed_rows, term_accounting, violation_terms)

H_MEMORY = 5         # success-history slots
P_BEST_RATE = 0.11   # fraction of the population eligible as pbest
N_MIN = 4            # smallest population current-to-pbest/1 can run on


_ROW_FIELDS = ("x", "f", "V", "nu", "nu_eps", "feasible")


@dataclass
class Population:
    """The members of R runs as row-aligned arrays, one row per member.

    ``x`` (R, N, D) positions, ``f`` (R, N) objectives, ``V`` (R, N, p+q)
    violation terms [max(g, 0) | |h|] with the p inequalities first (see
    cop.violation_terms), ``nu`` (R, N) the exact and ``nu_eps`` the
    relaxed violation under the active epsilon,
    ``feasible`` the mask at the runs' delta_acc.  ``archive[r]`` (L_r, D)
    holds the positions of run r's replaced parents.
    """

    x: np.ndarray
    f: np.ndarray
    V: np.ndarray
    nu: np.ndarray
    nu_eps: np.ndarray
    feasible: np.ndarray
    n_ineq: int
    archive: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def evaluated(cls, x, f, C, n_ineq: int, delta_acc: float = DELTA_ACC_DEFAULT,
                  eps: np.ndarray | None = None) -> "Population":
        """Rows from evaluator output (f, C) for the rows of x (R, N, D), C kept
        as its violation terms; nu_eps is nu when no epsilon is given, else
        eps must be one epsilon_vector returned."""
        f = f.reshape(x.shape[:2])
        V = violation_terms(C.reshape(*x.shape[:2], C.shape[-1]), n_ineq)
        nu, nu_eps, feasible = term_accounting(V, n_ineq, eps, delta_acc)
        return cls(x=x, f=f, V=V, nu=nu, nu_eps=nu_eps, feasible=feasible, n_ineq=n_ineq)

    @property
    def size(self) -> int:
        return self.f.shape[-1]  # members per run

    def ranking(self) -> np.ndarray:
        """Each run's member indices (R, N) best first by (nu_eps, f), ties in index order."""
        return np.lexsort((self.f, self.nu_eps))

    def keep(self, rows) -> None:
        """Keep only the given rows (R, n) of each run, in the given order."""
        runs = np.arange(len(rows))[:, None]
        for name in _ROW_FIELDS:
            setattr(self, name, getattr(self, name)[runs, rows])

    def replace(self, won, other: "Population") -> None:
        """Overwrite the first k rows of each run where ``won`` (R, k) holds with other's."""
        for name in _ROW_FIELDS:
            rows = getattr(self, name)[:, :won.shape[1]]
            np.copyto(rows, getattr(other, name), where=won if rows.ndim == 2 else won[..., None])


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
    """The record of R runs in lockstep: their shared budget, initial
    population size and LPSR flag, each run's success-history memory, and
    per run, as (R,) arrays, the bookkeeping over every evaluation and the
    reference values the features and the reward read, complete from
    generation 0: init_population sets them, generation_step keeps nu_top5."""

    budget: BudgetCounter            # holds fes and maxfes of each run
    n_init: int                      # initial population size, where LPSR starts
    lpsr: bool = False               # linear population size reduction
    hist: list[SuccessHistory] = field(default_factory=list)  # one per run
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
        self.f_gbest = np.minimum(self.f_gbest, f.min(axis=-1))
        self.f_max = np.maximum(self.f_max, f.max(axis=-1))
        self.best_sco = np.minimum(self.best_sco, np.where(ok, f, f + batch.nu).min(axis=-1))


def init_population(problem: ConstrainedProblem, rngs: list[np.random.Generator],
                    stats: RunStats) -> Population:
    """Sample stats.n_init points in the box from each run's generator,
    evaluate them in one batch, set stats' references and fresh memories."""
    n, budget = stats.n_init, stats.budget
    if n < N_MIN:
        raise ValueError(f"population size must be >= {N_MIN}, got {n}")
    if budget.remaining < n:
        raise RuntimeError(f"budget of {budget.remaining} evaluations cannot initialize n={n}")
    x = np.array([rng.uniform(problem.lower, problem.upper, size=(n, problem.dim))
                  for rng in rngs])
    f, C = problem.evaluate_batch(x.reshape(-1, problem.dim))
    budget.spend(n)
    pop = Population.evaluated(x, f, C, problem.n_ineq, stats.delta_acc)
    pop.archive = [np.empty((0, problem.dim)) for _ in rngs]
    stats.hist = stats.hist or [SuccessHistory.fresh() for _ in rngs]
    stats.observe(pop)
    stats.nu_top5 = stats.nu_top5_0 = features.top5_violation_mean(pop.nu)
    stats.f_pbest_0 = pop.f.min(-1)
    return pop


def refresh_relaxed(pop: Population, eps: np.ndarray) -> np.ndarray:
    """Recompute every relaxed violation against a new epsilon and return it
    as epsilon_vector accepts it; a rejected one leaves pop as it was."""
    eps = epsilon_vector(eps, pop.V.shape[-1])
    pop.nu_eps = relaxed_rows(pop.V, pop.n_ineq, eps)
    return eps


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


def update_memory(hists: list[SuccessHistory], counts: np.ndarray, f_w: np.ndarray,
                  cr_w: np.ndarray, w_raw: np.ndarray) -> None:
    """Write weighted means of each run's successful (F, CR) samples into its slot k.

    f_w, cr_w and w_raw hold the runs' successes one run after another,
    counts[r] of them for hists[r].  Each run's weights are divided by their
    own sum; F uses the weighted Lehmer mean, CR the weighted arithmetic
    mean, and a slot goes terminal (NaN) once the successful CRs are all
    zero, after which it keeps emitting CR = 0.  A run without successes
    keeps its memory.  The arithmetic runs once on the flat arrays; each run
    sums its weights over its contiguous slice, then makes one reduction call
    over its columns of the stacked terms (wf * F, wf, w * CR, CR), whose rows
    sum pairwise, bitwise as over that run alone.  As CR >= 0, the CR sum is
    <= 0 exactly when every successful CR is zero.
    """
    spans, divisors, b = [], [], 0
    for hist, c in zip(hists, counts.tolist()):
        a, b = b, b + c
        if c:
            spans.append((hist, a, b))
        divisors.append(max(np.add.reduce(w_raw[a:b]), 1e-300) if c else 1.0)  # repeated c times
    w = w_raw / np.array(divisors).repeat(counts)
    wf = w * f_w
    terms = np.array([wf * f_w, wf, w * cr_w, cr_w])
    for hist, a, b in spans:
        k = hist.k
        wff, wf_sum, wcr, cr_sum = np.add.reduce(terms[:, a:b], axis=1).tolist()
        # numpy's quotient where Python's would raise: 0 / 0 is NaN
        hist.m_f[k] = wff / wf_sum if wf_sum else np.float64(wff) / wf_sum
        hist.m_cr[k] = np.nan if math.isnan(hist.m_cr[k]) or cr_sum <= 0.0 else wcr
        hist.k = (k + 1) % hist.m_f.size


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
    """One generation's random quantities, entry [r, i] belonging to member i of run r."""

    slot: np.ndarray   # success-history slot
    F: np.ndarray      # scale factor in (0, 1]
    CR: np.ndarray     # crossover rate in [0, 1], 0 on a terminal slot
    pbest: np.ndarray  # rank of the pbest among the ceil(P_BEST_RATE * n) best
    r1: np.ndarray     # population index other than i
    r2: np.ndarray     # population-then-archive index other than i and r1
    u: np.ndarray      # (R, n, d) crossover uniforms
    j: np.ndarray      # crossover's forced donor coordinate


def draw_generation(hists: list[SuccessHistory], n: int, n_archive: list[int], d: int,
                    rngs: list[np.random.Generator]) -> Draws:
    """Draw a generation of R runs: run r, with memory hists[r] and n_archive[r]
    archive rows, calls rngs[r] for slots, F's Cauchy draws (redrawn where F <= 0),
    CR's normals (unused on a terminal slot), one call for pbest ranks, r1 and r2,
    crossover's uniforms and forced coordinates, in order; the rest runs once on the stack."""
    if not len(hists) == len(n_archive) == len(rngs):
        raise ValueError(f"{len(hists)} memories, {len(n_archive)} archives, {len(rngs)} rngs")
    raw, n_best = [], max(1, math.ceil(P_BEST_RATE * n))
    for hist, n_arch, rng in zip(hists, n_archive, rngs):
        slot = rng.integers(hist.m_f.size, size=n)
        f_raw = hist.m_f[slot] + 0.1 * rng.standard_cauchy(n)
        redraw = (f_raw <= 0.0).nonzero()[0]
        while redraw.size:
            f_raw[redraw] = hist.m_f[slot[redraw]] + 0.1 * rng.standard_cauchy(redraw.size)
            redraw = redraw[f_raw[redraw] <= 0.0]
        raw.append((slot, f_raw, hist.m_cr[slot], rng.standard_normal(n),
                    rng.integers(np.array([n_best, n - 1, n + n_arch - 2]).repeat(n)).reshape(3, n),
                    rng.random((n, d)), rng.integers(d, size=n)))
    slot, f_raw, m_cr, normal, picks, u, j = map(np.array, zip(*raw))
    pbest, r1, r2 = picks.transpose(1, 0, 2)
    CR = np.where(np.isnan(m_cr), 0.0, (m_cr + 0.1 * normal).clip(0.0, 1.0))
    # r1 and r2 are drawn from ranges short by the excluded indices, then
    # stepped past each excluded index in increasing order
    i = np.arange(n)
    r1 += r1 >= i
    r2 += r2 >= np.minimum(i, r1)
    r2 += r2 >= np.maximum(i, r1)
    return Draws(slot, np.minimum(f_raw, 1.0), CR, pbest, r1, r2, u, j)


def repair_bounds(t: np.ndarray, x: np.ndarray, lower: np.ndarray,
                  upper: np.ndarray) -> np.ndarray:
    """Midpoint bound repair: a coordinate of t below lower becomes
    (x + lower) / 2, one above upper (x + upper) / 2, for parents x in the box.

    One pass: a coordinate outside the box differs from its clamp, which is
    the bound it crossed; as x lies in the box, no midpoint crosses the other
    bound, so this equals repairing the lower side, then the upper.
    """
    bound = np.minimum(np.maximum(t, lower), upper)
    return np.where(bound != t, (x + bound) / 2.0, t)


def generation_step(pop: Population, problem: ConstrainedProblem, eps: np.ndarray,
                    rngs: list[np.random.Generator], stats: RunStats) -> int:
    """Advance each run r of the population by one generation under row r
    of eps (R, p+q), or one vector for all, drawing from rngs[r].

    Trials are generated synchronously from the parent generation, then
    evaluated in order, in one batch over the runs, until stats.budget runs
    dry; unevaluated trials are skipped and their parents survive untouched.
    Returns the number of trials evaluated across the runs.  With stats.lpsr
    the population then shrinks to lpsr_target_size from stats.n_init; last,
    stats.nu_top5 is refreshed.  All runs draw in one draw_generation call.
    The winners of all runs are gathered once, run after run; each archive
    takes its run's slice and pops a random entry per overflow, and with LPSR
    one per entry beyond the new size, and one update_memory call updates
    every memory.  A rejected eps or per-run list changes nothing.
    """
    budget = stats.budget
    if budget.exhausted:
        raise RuntimeError("generation_step requires at least one remaining evaluation")
    runs, n, d = pop.x.shape
    for name, per_run in (("rngs", rngs), ("stats.hist", stats.hist), ("pop.archive", pop.archive)):
        if len(per_run) != runs:
            raise ValueError(f"{name} has {len(per_run)} entries for {runs} runs")
    eps = refresh_relaxed(pop, eps)
    ranked = pop.ranking()
    draws = draw_generation(stats.hist, n, [len(archive) for archive in pop.archive], d, rngs)
    F = draws.F[..., None]
    x = pop.x
    x_r2 = np.array([np.concatenate([x_run, archive]).take(r2, 0)
                     for x_run, archive, r2 in zip(x, pop.archive, draws.r2)])
    # the donors' rows by flat index into the runs' stacked rows: one take each
    run = np.arange(runs)[:, None]
    flat, first = x.reshape(-1, d), run * n
    x_pbest = flat.take((ranked[run, draws.pbest] + first).ravel(), 0).reshape(x.shape)
    x_r1 = flat.take((draws.r1 + first).ravel(), 0).reshape(x.shape)
    v = x + F * (x_pbest - x) + F * (x_r1 - x_r2)
    mask = draws.u < draws.CR[..., None]  # a fresh C-ordered array: reshape is a view
    mask.reshape(-1)[np.arange(0, runs * n * d, d) + draws.j.ravel()] = True
    trials_x = repair_bounds(np.where(mask, v, x), x, problem.lower, problem.upper)

    k = min(n, budget.remaining)
    trials_x = trials_x[:, :k]
    f, C = problem.evaluate_batch(trials_x.reshape(-1, d))
    budget.spend(k)
    trials = Population.evaluated(trials_x, f, C, pop.n_ineq, stats.delta_acc, eps)
    stats.observe(trials)

    # eps_compare(trial, parent) == -1, with select_survivor's weight
    f_p, nu_p, nu_t = pop.f[:, :k], pop.nu_eps[:, :k], trials.nu_eps
    won = (nu_t < nu_p) | ((nu_t == nu_p) & (trials.f < f_p))
    weight = np.where(nu_t != nu_p, nu_p - nu_t, f_p - trials.f)
    size = min(n, lpsr_target_size(budget.fes, budget.maxfes, stats.n_init)) if stats.lpsr else n
    # the winners of all runs, run after run: run r's are one contiguous slice
    # of each gather; x's rows go by index pairs, faster than a 2-D mask on (R, k, D)
    rows, cols = won.nonzero()
    counts = np.bincount(rows, minlength=runs)
    won_x, b = x[rows, cols], 0
    for r, (archive, rng, c) in enumerate(zip(pop.archive, rngs, counts.tolist())):
        # the winners' parents join in order, and each append past cap = max(L, n)
        # overflows at length cap + 1: its pops are one draw, walked over entry indices
        pool, cap = np.concatenate([archive, won_x[b:b + c]]), max(len(archive), n)
        b += c
        pops = rng.integers(cap + 1, size=len(pool) - cap).tolist() if len(pool) > cap else []
        keep = list(range(min(len(pool), cap)))
        for j, p in zip(range(cap, len(pool)), pops):
            keep.append(j)
            del keep[p]
        while stats.lpsr and len(keep) > size:  # LPSR's trim: the bound shrinks per pop
            keep.pop(int(rng.integers(len(keep))))
        pop.archive[r] = pool.take(keep, 0)
    update_memory(stats.hist, counts, draws.F[:, :k][won], draws.CR[:, :k][won], weight[won])
    pop.replace(won, trials)

    if size < n:
        best = pop.ranking()[:, :size]
        best.sort(axis=1)  # in place: the ranking is a fresh array
        pop.keep(best)

    stats.nu_top5 = features.top5_violation_mean(pop.nu)
    return trials.f.size
