import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlrelax import cop, env, features, lshade, problems
from rlrelax.config import ExperimentConfig
from rlrelax.cop import BudgetCounter, ConstrainedProblem, relaxed_violations, row_accounting
from rlrelax.lshade import (
    H_MEMORY,
    N_MIN,
    P_BEST_RATE,
    Draws,
    Population,
    RunStats,
    SuccessHistory,
    draw_generation,
    episode_steps,
    generation_step,
    init_population,
    lpsr_target_size,
    refresh_relaxed,
    select_survivor,
    update_memory,
)
import reference
from reference import Evaluation, violation


def sphere(dim):
    return ConstrainedProblem(
        name="sphere", dim=dim,
        lower=np.full(dim, -100.0), upper=np.full(dim, 100.0),
        n_ineq=0, n_eq=0,
        evaluator=lambda X: (np.sum(X * X, axis=-1), np.zeros((len(X), 0))),
    )


def toy_constrained(dim):
    # g1 = 1 - sum(x), h1 = x0; keeps violations interesting
    return ConstrainedProblem(
        name="toy", dim=dim,
        lower=np.full(dim, -10.0), upper=np.full(dim, 10.0),
        n_ineq=1, n_eq=1,
        evaluator=lambda X: (
            np.sum(X * X, axis=-1), np.stack([1.0 - np.sum(X, axis=-1), X[:, 0]], axis=-1)
        ),
    )


def make_pair(f, g=(), h=(), eps=None):
    """(objective, relaxed violation) of one candidate, as selection sees it."""
    C = np.array([[*g, *h]], dtype=float)
    nu = row_accounting(C, len(g))[0] if eps is None else relaxed_violations(C, len(g), eps)
    return (float(f), float(nu[0]))


class TestInit:
    def test_sizes_and_budget(self):
        budget = BudgetCounter(500)
        pop = init_population(sphere(10), [np.random.default_rng(0)], RunStats(budget, 50))
        assert pop.size == 50
        assert budget.fes == 50
        assert pop.x.shape == (1, 50, 10)
        assert np.all(pop.x >= -100) and np.all(pop.x <= 100)

    def test_deterministic(self):
        a = init_population(sphere(5), [np.random.default_rng(42)], RunStats(BudgetCounter(100), 10))
        b = init_population(sphere(5), [np.random.default_rng(42)], RunStats(BudgetCounter(100), 10))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.f, b.f)

    def test_too_small(self):
        with pytest.raises(ValueError):
            init_population(sphere(5), [np.random.default_rng(0)], RunStats(BudgetCounter(100), 3))

    def test_insufficient_budget(self):
        with pytest.raises(RuntimeError):
            init_population(sphere(5), [np.random.default_rng(0)], RunStats(BudgetCounter(5), 10))


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 2**32), k=st.integers(0, 64), seed=st.integers(0, 2**32 - 1),
       earlier=st.integers(0, 5), earlier_bound=st.integers(1, 2**32))
@example(m=2**32, k=64, seed=0, earlier=1, earlier_bound=2**31 + 1)
@example(m=1, k=0, seed=0, earlier=3, earlier_bound=7)
def test_vector_integers_equal_scalar_calls(m, k, seed, earlier, earlier_bound):
    # generation_step draws an archive's k overflow pops, all below one bound
    # m, as integers(m, size=k) in place of k scalar integers(m) calls; both
    # must give the same values and leave the same state, also when earlier
    # 32-bit draws have left half of a 64-bit word buffered
    rng = np.random.default_rng(seed)
    rng.integers(earlier_bound, size=earlier)
    scalar = copy.deepcopy(rng)
    assert rng.integers(m, size=k).tolist() == [int(scalar.integers(m)) for _ in range(k)]
    assert rng.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=500, deadline=None)
@given(m=st.integers(1, 2**32), seed=st.integers(0, 2**32 - 1), pending=st.booleans())
@example(m=2**32, seed=0, pending=True)
@example(m=1, seed=0, pending=False)
def test_empty_integers_leave_the_state(m, seed, pending):
    # generation_step makes no overflow draw for a run whose archive does not
    # overflow, where it once called integers(m, size=0); that call must
    # leave the state as it was, also when an earlier 32-bit draw has left
    # half of a 64-bit word buffered
    rng = np.random.default_rng(seed)
    if pending:
        rng.integers(2**32)  # one full-range 32-bit draw, which never rejects
    before = rng.bit_generator.state
    assert before["has_uint32"] == pending
    assert rng.integers(m, size=0).shape == (0,)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("n", [4, 5, 9, 12, 50, 100])
def test_one_broadcast_integers_equals_three_calls(n, pending):
    # draw_generation draws pbest, r1 and r2 as one integers call over the
    # three bounds, each repeated n times; the bounded draws take 32-bit words
    # from a generator that keeps its spare half-word between calls, so the
    # values and the state equal those of three integers(high, size=n) calls
    n_best = max(1, math.ceil(P_BEST_RATE * n))  # 1 at n = 4, 5 and 9
    for seed, n_arch in enumerate((0, n // 2, n)):
        highs = (n_best, n - 1, n + n_arch - 2)
        rng = np.random.default_rng(seed)
        if pending:
            rng.integers(2**32)  # one full-range 32-bit draw, which never rejects
        calls = copy.deepcopy(rng)
        one = rng.integers(np.array(highs).repeat(n))
        three = np.concatenate([calls.integers(high, size=n) for high in highs])
        assert one.tolist() == three.tolist()
        assert rng.bit_generator.state == calls.bit_generator.state
        # a 64-bit draw, then a 32-bit one that reads the spare half-word, if any
        assert (rng.random(), rng.integers(2**32)) == (calls.random(), calls.integers(2**32))
        assert rng.bit_generator.state == calls.bit_generator.state


def chi_square(counts) -> tuple[float, int]:
    """Pearson's statistic of counts against equal frequencies, and its
    degrees of freedom."""
    counts = np.asarray(counts, dtype=float).ravel()
    expected = counts.sum() / counts.size
    return float(np.sum((counts - expected) ** 2) / expected), counts.size - 1


def assert_uniform(counts):
    # about six standard deviations above the mean of the statistic; every
    # sample is drawn at a fixed seed, so the check cannot flake
    stat, dof = chi_square(counts)
    assert stat < dof + 6.0 * math.sqrt(2.0 * dof), (stat, dof)


def draw_one_run(hist, n, n_archive, d, rng) -> Draws:
    """The draws of a one-run stack, as that run's (n,) and (n, d) arrays."""
    return Draws._make(a[0] for a in draw_generation([hist], n, [n_archive], d, [rng]))


class TestDrawGeneration:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(N_MIN, 40), fill=st.floats(0.0, 1.0), d=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), low=st.sampled_from([1e-6, 0.05]),
           terminal=st.lists(st.booleans(), min_size=H_MEMORY, max_size=H_MEMORY))
    def test_ranges_and_exclusions(self, n, fill, d, seed, low, terminal):
        rng = np.random.default_rng(seed)
        hist = SuccessHistory(m_f=rng.uniform(low, 1.0, size=H_MEMORY),
                              m_cr=np.where(terminal, np.nan, rng.uniform(size=H_MEMORY)))
        n_archive = round(fill * n)
        g = draw_one_run(hist, n, n_archive, d, rng)
        i = np.arange(n)
        assert all(a.shape == (n,) for a in (g.slot, g.F, g.CR, g.pbest, g.r1, g.r2, g.j))
        assert g.u.shape == (n, d) and np.all((g.u >= 0.0) & (g.u < 1.0))
        assert np.all((g.slot >= 0) & (g.slot < H_MEMORY))
        assert np.all((g.F > 0.0) & (g.F <= 1.0))
        assert np.all((g.CR >= 0.0) & (g.CR <= 1.0))
        assert np.all(g.CR[np.array(terminal)[g.slot]] == 0.0)
        assert np.all((g.pbest >= 0) & (g.pbest < math.ceil(P_BEST_RATE * n)))
        assert np.all((g.r1 >= 0) & (g.r1 < n) & (g.r1 != i))
        assert np.all((g.r2 >= 0) & (g.r2 < n + n_archive) & (g.r2 != i) & (g.r2 != g.r1))
        assert np.all((g.j >= 0) & (g.j < d))

    def test_indices_uniform_over_allowed_values(self):
        n, n_archive, d, calls = 19, 3, 4, 10_000  # 3 pbest ranks
        pool, n_best = n + n_archive, math.ceil(P_BEST_RATE * n)
        rng = np.random.default_rng(20240)
        hist = SuccessHistory.fresh()
        slot, pbest, j = np.zeros(H_MEMORY), np.zeros(n_best), np.zeros(d)
        r1 = np.zeros((n, n))
        r1r2 = np.zeros((n, n, pool))
        for _ in range(calls):
            g = draw_one_run(hist, n, n_archive, d, rng)
            for counts, values in ((slot, g.slot), (pbest, g.pbest), (j, g.j)):
                np.add.at(counts, values, 1)
            np.add.at(r1, (np.arange(n), g.r1), 1)
            np.add.at(r1r2, (np.arange(n), g.r1, g.r2), 1)
        for counts in (slot, pbest, j):
            assert_uniform(counts)
        for i in range(n):
            others = [k for k in range(n) if k != i]
            assert_uniform(r1[i, others])
            # r2 given i: uniform over the (r1, r2) pairs of distinct
            # indices, archive rows included
            allowed = [(a, b) for a in others for b in range(pool) if b not in (i, a)]
            assert_uniform([r1r2[i, a, b] for a, b in allowed])
            assert r1r2[i, :, n:].sum() > 0 and r1r2[i, :, :n].sum() > 0
            assert r1r2[i, i].sum() == 0 and all(r1r2[i, a, a] == 0 for a in range(n))

    def test_f_is_a_cauchy_truncated_at_zero(self):
        # m_f = 0.05 puts a third of the Cauchy below zero; redrawing only
        # those entries must leave the Cauchy conditioned on F > 0
        hist = SuccessHistory(m_f=np.full(H_MEMORY, 0.05), m_cr=np.full(H_MEMORY, 0.5))
        rng = np.random.default_rng(7)
        F = np.concatenate([draw_one_run(hist, 1000, 0, 1, rng).F for _ in range(200)])

        def cauchy_cdf(t):
            return 0.5 + math.atan((t - 0.05) / 0.1) / math.pi

        for t in (0.02, 0.05, 0.2, 0.5):
            want = (cauchy_cdf(t) - cauchy_cdf(0.0)) / (1.0 - cauchy_cdf(0.0))
            assert abs(np.mean(F <= t) - want) < 0.005  # 5 standard errors
        assert np.mean(F == 1.0) == pytest.approx(
            (1.0 - cauchy_cdf(1.0)) / (1.0 - cauchy_cdf(0.0)), abs=0.005)

    @pytest.mark.parametrize("hists, n_archive, runs", [(2, 1, 1), (1, 2, 1), (2, 2, 1),
                                                         (1, 1, 2), (0, 1, 1)])
    def test_mismatched_lists_rejected_before_any_draw(self, hists, n_archive, runs):
        rngs = [np.random.default_rng(r) for r in range(runs)]
        before = pickle.dumps(rngs)
        message = f"{hists} memories, {n_archive} archives, {runs} rngs"
        with pytest.raises(ValueError, match=message):
            draw_generation([SuccessHistory.fresh()] * hists, 10, [0] * n_archive, 3, rngs)
        assert pickle.dumps(rngs) == before


def sphere_rows(X):
    return np.sum(X * X, axis=-1), np.zeros((len(X), 0))


def one_generation(x, archive, hist, lower, upper, seed=0):
    """One generation of a sphere population at x and archive (L, D), with the
    box given.  Returns the trials the evaluator saw, the draws (made again
    from a copy of the rng, which generation_step draws from first) and the
    ranking the pbest ranks index."""
    batches = []

    def evaluator(X):
        batches.append(X.copy())
        return sphere_rows(X)

    n, d = x.shape
    problem = ConstrainedProblem(name="sphere", dim=d, lower=np.full(d, lower),
                                 upper=np.full(d, upper), n_ineq=0, n_eq=0,
                                 evaluator=evaluator)
    pop = Population.evaluated(x[None].copy(), *sphere_rows(x), n_ineq=0)
    pop.archive = [archive.copy()]
    rng = np.random.default_rng(seed)
    draws = draw_one_run(copy.deepcopy(hist), n, len(archive), d, copy.deepcopy(rng))
    ranked = pop.ranking()[0]
    generation_step(pop, problem, np.zeros(0), [rng],
                    RunStats(BudgetCounter(10 * n), n, hist=[hist]))
    return batches[0], draws, ranked


def donors(x, archive, draws, ranked):
    """current-to-pbest/1: v = x_i + F (x_pbest - x_i) + F (x_r1 - x_r2)."""
    F = draws.F[:, None]
    x_r2 = np.concatenate([x, archive])[draws.r2]
    return x + F * (x[ranked[draws.pbest]] - x) + F * (x[draws.r1] - x_r2)


class TestVariation:
    def test_cr_zero_copies_exactly_coordinate_j(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, size=(20, 8))
        hist = SuccessHistory(m_f=np.full(H_MEMORY, 0.5), m_cr=np.full(H_MEMORY, np.nan))
        trials, draws, _ = one_generation(x, np.empty((0, 8)), hist, -100.0, 100.0)
        for i in range(20):
            assert np.flatnonzero(trials[i] != x[i]).tolist() == [draws.j[i]]

    def test_cr_one_takes_the_donor(self):
        rng = np.random.default_rng(5)
        x, archive = rng.uniform(-1.0, 1.0, size=(12, 6)), rng.uniform(-1.0, 1.0, size=(7, 6))
        hist = SuccessHistory(m_f=np.full(H_MEMORY, 0.5), m_cr=np.full(H_MEMORY, 50.0))
        trials, draws, ranked = one_generation(x, archive, hist, -100.0, 100.0)
        assert np.all(draws.CR == 1.0) and np.any(draws.r2 >= 12)
        assert np.array_equal(trials, donors(x, archive, draws, ranked))

    def test_midpoint_repair(self):
        # donors leave the box [-1, 1] on both sides; each such coordinate
        # lands halfway between the parent and the bound it crossed
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, size=(30, 5))
        hist = SuccessHistory(m_f=np.full(H_MEMORY, 0.9), m_cr=np.full(H_MEMORY, 50.0))
        trials, draws, ranked = one_generation(x, np.empty((0, 5)), hist, -1.0, 1.0)
        v = donors(x, np.empty((0, 5)), draws, ranked)
        assert np.any(v < -1.0) and np.any(v > 1.0)
        expected = np.where(v < -1.0, (x - 1.0) / 2.0, np.where(v > 1.0, (x + 1.0) / 2.0, v))
        assert np.array_equal(trials, expected)
        assert np.all((trials >= -1.0) & (trials <= 1.0))

    def test_identical_points_collapse(self):
        x = np.tile([2.0, 3.0], (6, 1))
        trials, _, _ = one_generation(x, x[:3], SuccessHistory.fresh(), -10.0, 10.0)
        assert np.array_equal(trials, x)


class TestSelection:
    def test_trial_wins_on_objective(self):
        parent = make_pair(2.0)
        trial = make_pair(1.0)
        survivor, success, w = select_survivor(parent, trial)
        assert survivor is trial and success
        assert w == pytest.approx(1.0)

    def test_tie_keeps_parent(self):
        parent = make_pair(1.0)
        trial = make_pair(1.0)
        survivor, success, _ = select_survivor(parent, trial)
        assert survivor is parent and not success

    def test_violation_dominates_objective(self):
        parent = make_pair(99.0, g=[0.1])
        trial = make_pair(0.0, g=[0.2])
        survivor, success, _ = select_survivor(parent, trial)
        assert survivor is parent and not success

    def test_weight_uses_violation_drop_when_nus_differ(self):
        parent = make_pair(5.0, g=[0.5])
        trial = make_pair(9.0, g=[0.2])
        survivor, success, w = select_survivor(parent, trial)
        assert success and w == pytest.approx(0.3)


def update_one_run(hist, f_vals, cr_vals, weights):
    """The stacked update_memory on one run's successes."""
    update_memory([hist], np.array([len(f_vals)]), np.array(f_vals, dtype=float),
                  np.array(cr_vals, dtype=float), np.array(weights, dtype=float))


MEMORY_UPDATES = (reference.update_memory, update_one_run)


class TestMemory:
    """The memory rules, each checked on the scalar oracle and on the stacked
    update at R = 1."""

    def test_single_success_means(self):
        for update in MEMORY_UPDATES:
            hist = SuccessHistory.fresh()
            update(hist, [0.5], [0.5], [1.0])
            assert hist.m_f[0] == pytest.approx(0.5)
            assert hist.m_cr[0] == pytest.approx(0.5)
            assert hist.k == 1

    def test_empty_leaves_unchanged(self):
        for update in MEMORY_UPDATES:
            hist = SuccessHistory.fresh()
            before_f, before_cr, before_k = hist.m_f.copy(), hist.m_cr.copy(), hist.k
            update(hist, [], [], [])
            assert np.array_equal(hist.m_f, before_f)
            assert np.array_equal(hist.m_cr, before_cr)
            assert hist.k == before_k

    def test_lehmer_mean(self):
        for update in MEMORY_UPDATES:
            hist = SuccessHistory.fresh()
            update(hist, [0.2, 0.8], [0.3, 0.7], [1.0, 1.0])
            assert hist.m_f[0] == pytest.approx((0.04 + 0.64) / (0.2 + 0.8))

    def test_terminal_cr_sentinel(self):
        for update in MEMORY_UPDATES:
            hist = SuccessHistory.fresh()
            update(hist, [0.5], [0.0], [1.0])
            assert np.isnan(hist.m_cr[0])
            hist.k = 0
            update(hist, [0.5], [0.9], [1.0])  # slot stays terminal
            assert np.isnan(hist.m_cr[0])

    def test_circular_index(self):
        for update in MEMORY_UPDATES:
            hist = SuccessHistory.fresh(h=2)
            for _ in range(3):
                update(hist, [0.4], [0.4], [1.0])
            assert hist.k == 1


class TestLpsr:
    def test_endpoints(self):
        assert lpsr_target_size(0, 500, 50) == 50
        assert lpsr_target_size(500, 500, 50) == 4

    def test_halfway(self):
        assert lpsr_target_size(250, 500, 50) == 27

    def test_shrinks_population(self):
        # each generation shrinks to the schedule from the initial 20, never
        # from the current size, so the run takes episode_steps generations
        problem = toy_constrained(5)
        budget = BudgetCounter(1000)
        rng = np.random.default_rng(8)
        stats = RunStats(budget, 20, lpsr=True)
        pop = init_population(problem, [rng], stats)
        gens = 0
        while not budget.exhausted:
            previous = pop.size
            generation_step(pop, problem, np.zeros(2), [rng], stats)
            gens += 1
            assert pop.size == min(previous, lpsr_target_size(budget.fes, budget.maxfes, 20))
            assert len(pop.archive[0]) <= pop.size
        assert pop.size < 20
        assert gens == episode_steps(budget.maxfes, 20, True)


class TestGenerationStep:
    def test_consumes_at_most_n(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(500)
        rng = np.random.default_rng(9)
        stats = RunStats(budget, 20)
        pop = init_population(problem, [rng], stats)
        before = budget.fes
        evaluated = generation_step(pop, problem, np.zeros(2), [rng], stats)
        assert evaluated == 20
        assert budget.fes - before == 20

    def test_budget_capped_partial_generation(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(25)  # init 20, then only 5 trials fit
        rng = np.random.default_rng(10)
        stats = RunStats(budget, 20)
        pop = init_population(problem, [rng], stats)
        evaluated = generation_step(pop, problem, np.zeros(2), [rng], stats)
        assert evaluated == 5
        assert budget.exhausted

    def test_exact_generation_count(self):
        # 10-D, budget 500, population 50: exactly 9 generations after init
        problem = toy_constrained(10)
        budget = BudgetCounter(500)
        rng = np.random.default_rng(11)
        stats = RunStats(budget, 50)
        pop = init_population(problem, [rng], stats)
        gens = 0
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(2), [rng], stats)
            gens += 1
        assert gens == 9
        assert budget.fes == 500

    def test_step_on_exhausted_budget_rejected(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(20)
        rng = np.random.default_rng(12)
        stats = RunStats(budget, 20)
        pop = init_population(problem, [rng], stats)
        with pytest.raises(RuntimeError):
            generation_step(pop, problem, np.zeros(2), [rng], stats)

    @pytest.mark.parametrize("bad", [[-1.0, 0.5], [np.nan, 1.0], [1.0, np.inf], [1.0, 1.0, 1.0],
                                     np.ones((3, 2))])
    def test_rejected_epsilon_changes_nothing(self, bad):
        # eps is checked once, inside generation_step, before anything moves
        problem = toy_constrained(5)
        rngs = [np.random.default_rng(16), np.random.default_rng(17)]
        stats = RunStats(BudgetCounter(200), 12)
        pop = init_population(problem, rngs, stats)
        generation_step(pop, problem, np.full(2, 0.5), rngs, stats)  # fills archive and memory
        before = pickle.dumps((pop, stats, rngs))
        with pytest.raises(ValueError):
            generation_step(pop, problem, bad, rngs, stats)
        assert pickle.dumps((pop, stats, rngs)) == before

    @pytest.mark.parametrize("name", ["rngs", "stats.hist", "pop.archive"])
    @pytest.mark.parametrize("length", [0, 1, 4])
    def test_mismatched_run_lists_change_nothing(self, name, length):
        # the generators, memories and archives are checked against the run
        # axis before the relaxed violations are refreshed or any run draws
        problem = toy_constrained(5)
        rngs = [np.random.default_rng(seed) for seed in (18, 19, 20)]
        stats = RunStats(BudgetCounter(200), 12)
        pop = init_population(problem, rngs, stats)
        generation_step(pop, problem, np.full(2, 0.5), rngs, stats)  # fills archives and memories
        before = pickle.dumps((pop, stats, rngs))
        lists = {"rngs": rngs, "stats.hist": stats.hist, "pop.archive": pop.archive}
        wrong = dict(lists, **{name: (lists[name] * 2)[:length]})
        stats.hist, pop.archive = wrong["stats.hist"], wrong["pop.archive"]
        with pytest.raises(ValueError, match=rf"^{name} has {length} entries for 3 runs$"):
            generation_step(pop, problem, np.zeros(2), wrong["rngs"], stats)
        stats.hist, pop.archive = lists["stats.hist"], lists["pop.archive"]
        assert pickle.dumps((pop, stats, rngs)) == before

    def test_elitism_under_fixed_eps(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(2000)
        rng = np.random.default_rng(13)
        stats = RunStats(budget, 20)
        pop = init_population(problem, [rng], stats)
        eps = np.array([0.5, 0.5])
        refresh_relaxed(pop, eps)
        best = min(zip(pop.nu_eps[0], pop.f[0]))
        while not budget.exhausted:
            generation_step(pop, problem, eps, [rng], stats)
            now = min(zip(pop.nu_eps[0], pop.f[0]))
            assert now <= best
            best = now

    def test_run_stats_monotone(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(2000)
        rng = np.random.default_rng(14)
        stats = RunStats(budget, 20)
        pop = init_population(problem, [rng], stats)
        prev_sco = stats.best_sco
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(2), [rng], stats)
            assert stats.best_sco <= prev_sco
            prev_sco = stats.best_sco

    def test_zero_eps_matches_feasibility_first_rule(self):
        # pairwise selection under eps = 0 equals the classic rule:
        # feasible beats infeasible, then objective, then violation order
        rng = np.random.default_rng(15)
        for _ in range(500):
            e_parent, e_trial = (Evaluation(rng.normal(), rng.normal(size=1), rng.normal(size=1))
                                 for _ in range(2))
            parent, trial = (make_pair(e.f, e.g, e.h, eps=np.zeros(2))
                             for e in (e_parent, e_trial))
            survivor, _, _ = select_survivor(parent, trial)

            def direct_rule(a, b):
                nu_a, nu_b = violation(a), violation(b)
                if nu_a == 0.0 and nu_b > 0.0:
                    return a
                if nu_b == 0.0 and nu_a > 0.0:
                    return b
                if nu_a == nu_b:
                    return b if b.f < a.f else a
                return a if nu_a < nu_b else b

            expected = trial if direct_rule(e_parent, e_trial) is e_trial else parent
            assert survivor is expected

    def test_sphere_sanity_quick(self):
        problem = sphere(10)
        budget = BudgetCounter(10_000)
        rng = np.random.default_rng(16)
        stats = RunStats(budget, 50)
        pop = init_population(problem, [rng], stats)
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(0), [rng], stats)
        assert stats.f_gbest <= 1e-2


BUILT_IN = ["cec12", "cec14"] + [f"synthetic/{kind}/{seed}"
                                 for seed, kind in enumerate(problems.SYNTHETIC_KINDS)]


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("name", BUILT_IN)
def test_generation_path_calls_no_numpy_wrapper(numpy_wrapper_calls, name, runs):
    calls = numpy_wrapper_calls(cop, env, features, lshade, problems)
    cfg = ExperimentConfig(pop_size=12, lpsr=True)
    # 12 + 12 + 4 evaluations: LPSR shrinks 12 -> 5 -> 4, the budget ends mid-generation
    control = env.EpsilonControlEnv([problems.ProblemRegistry().lookup(name, 10)] * runs,
                                    [np.random.default_rng(run) for run in range(runs)], cfg, 28)
    control.reset()
    for _ in range(2):
        control.step_with_epsilon(control.eps_base.values * 0.5, 0.5)
    assert control.terminal and control.pop.size == N_MIN
    assert calls == []
