import numpy as np
import pytest

from rlrelax.cop import BudgetCounter, ConstrainedProblem, relaxed_violations, violations
from rlrelax.lshade import (
    RunStats,
    SuccessHistory,
    generation_step,
    init_population,
    lpsr_target_size,
    refresh_relaxed,
    select_survivor,
    update_memory,
)
from reference import Evaluation, crossover_binomial, mutate_current_to_pbest, violation


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
    nu = violations(C, len(g)) if eps is None else relaxed_violations(C, len(g), eps)
    return (float(f), float(nu[0]))


class TestInit:
    def test_sizes_and_budget(self):
        budget = BudgetCounter(500)
        pop = init_population(sphere(10), 50, np.random.default_rng(0), budget, RunStats())
        assert pop.size == 50
        assert budget.fes == 50
        assert pop.x.shape == (50, 10)
        assert np.all(pop.x >= -100) and np.all(pop.x <= 100)

    def test_deterministic(self):
        a = init_population(sphere(5), 10, np.random.default_rng(42), BudgetCounter(100),
                            RunStats())
        b = init_population(sphere(5), 10, np.random.default_rng(42), BudgetCounter(100),
                            RunStats())
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.f, b.f)

    def test_too_small(self):
        with pytest.raises(ValueError):
            init_population(sphere(5), 3, np.random.default_rng(0), BudgetCounter(100), RunStats())

    def test_insufficient_budget(self):
        with pytest.raises(RuntimeError):
            init_population(sphere(5), 10, np.random.default_rng(0), BudgetCounter(5), RunStats())


class TestMutation:
    def test_zero_f_returns_parent(self):
        xs = np.arange(5.0)[:, None]
        rng = np.random.default_rng(1)
        v = mutate_current_to_pbest(0, xs, [], 0.0, list(range(5)), 0.11, rng)
        assert np.array_equal(v, xs[0])

    def test_identical_points_collapse(self):
        xs = np.tile([2.0, 3.0], (6, 1))
        rng = np.random.default_rng(2)
        v = mutate_current_to_pbest(0, xs, [], 0.7, list(range(6)), 0.11, rng)
        assert np.allclose(v, [2.0, 3.0])

    def test_hand_arithmetic_1d(self):
        # v = x_i + F (x_pbest - x_i) + F (x_r1 - x_r2) = 0 + 0.5*2 + 0.5*1 = 1.5
        xs = np.array([[0.0], [2.0], [1.0], [0.0]])
        ranked = [1, 2, 3, 0]

        class FixedRng:
            def __init__(self, seq):
                self.seq = list(seq)

            def integers(self, *_a, **_k):
                return self.seq.pop(0)

        # pbest slot -> member 1, r1 = 2, r2 = 3 (x = 0)
        v = mutate_current_to_pbest(0, xs, [], 0.5, ranked, 0.25, FixedRng([0, 2, 3]))
        assert v[0] == pytest.approx(1.5)

    def test_indices_distinct(self):
        xs = np.arange(6.0)[:, None]
        rng = np.random.default_rng(3)
        for i in range(6):
            for _ in range(50):
                mutate_current_to_pbest(i, xs, list(xs[:2]), 0.5,
                                        list(range(6)), 0.11, rng)
        # reaching here means the distinctness loops always terminated


class TestCrossover:
    def test_cr_one_takes_donor(self):
        rng = np.random.default_rng(4)
        x = np.zeros(8)
        v = np.ones(8) * 0.5
        u = crossover_binomial(x, v, 1.0, rng, np.full(8, -1.0), np.full(8, 1.0))
        assert np.array_equal(u, v)

    def test_cr_zero_single_component(self):
        rng = np.random.default_rng(5)
        x = np.zeros(8)
        v = np.ones(8) * 0.5
        u = crossover_binomial(x, v, 0.0, rng, np.full(8, -1.0), np.full(8, 1.0))
        assert np.sum(u != x) == 1

    def test_midpoint_repair(self):
        rng = np.random.default_rng(6)
        x = np.array([0.5])
        v = np.array([3.0])  # above the upper bound of 1
        u = crossover_binomial(x, v, 1.0, rng, np.array([-1.0]), np.array([1.0]))
        assert u[0] == pytest.approx((0.5 + 1.0) / 2.0)
        v = np.array([-9.0])
        u = crossover_binomial(x, v, 1.0, rng, np.array([-1.0]), np.array([1.0]))
        assert u[0] == pytest.approx((0.5 - 1.0) / 2.0)


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


class TestMemory:
    def test_single_success_means(self):
        hist = SuccessHistory.fresh()
        update_memory(hist, [0.5], [0.5], [1.0])
        assert hist.m_f[0] == pytest.approx(0.5)
        assert hist.m_cr[0] == pytest.approx(0.5)
        assert hist.k == 1

    def test_empty_leaves_unchanged(self):
        hist = SuccessHistory.fresh()
        before_f, before_cr, before_k = hist.m_f.copy(), hist.m_cr.copy(), hist.k
        update_memory(hist, [], [], [])
        assert np.array_equal(hist.m_f, before_f)
        assert np.array_equal(hist.m_cr, before_cr)
        assert hist.k == before_k

    def test_lehmer_mean(self):
        hist = SuccessHistory.fresh()
        update_memory(hist, [0.2, 0.8], [0.3, 0.7], [1.0, 1.0])
        assert hist.m_f[0] == pytest.approx((0.04 + 0.64) / (0.2 + 0.8))

    def test_terminal_cr_sentinel(self):
        hist = SuccessHistory.fresh()
        update_memory(hist, [0.5], [0.0], [1.0])
        assert np.isnan(hist.m_cr[0])
        hist.k = 0
        update_memory(hist, [0.5], [0.9], [1.0])  # slot stays terminal
        assert np.isnan(hist.m_cr[0])

    def test_circular_index(self):
        hist = SuccessHistory.fresh(h=2)
        for _ in range(3):
            update_memory(hist, [0.4], [0.4], [1.0])
        assert hist.k == 1


class TestLpsr:
    def test_endpoints(self):
        assert lpsr_target_size(0, 500, 50) == 50
        assert lpsr_target_size(500, 500, 50) == 4

    def test_halfway(self):
        assert lpsr_target_size(250, 500, 50) == 27

    def test_shrinks_population(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(1000)
        rng = np.random.default_rng(8)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        hist = SuccessHistory.fresh()
        eps = np.zeros(2)
        while not budget.exhausted:
            generation_step(pop, problem, eps, hist, rng, budget, stats,
                            lpsr=True, n_init=20)
        assert pop.size < 20
        assert len(pop.archive) <= pop.size


class TestGenerationStep:
    def test_consumes_at_most_n(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(500)
        rng = np.random.default_rng(9)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        before = budget.fes
        evaluated = generation_step(pop, problem, np.zeros(2),
                                    SuccessHistory.fresh(), rng, budget, stats)
        assert evaluated == 20
        assert budget.fes - before == 20

    def test_budget_capped_partial_generation(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(25)  # init 20, then only 5 trials fit
        rng = np.random.default_rng(10)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        evaluated = generation_step(pop, problem, np.zeros(2),
                                    SuccessHistory.fresh(), rng, budget, stats)
        assert evaluated == 5
        assert budget.exhausted

    def test_exact_generation_count(self):
        # 10-D, budget 500, population 50: exactly 9 generations after init
        problem = toy_constrained(10)
        budget = BudgetCounter(500)
        rng = np.random.default_rng(11)
        stats = RunStats()
        pop = init_population(problem, 50, rng, budget, stats)
        hist = SuccessHistory.fresh()
        gens = 0
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(2), hist, rng, budget, stats)
            gens += 1
        assert gens == 9
        assert budget.fes == 500

    def test_step_on_exhausted_budget_rejected(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(20)
        rng = np.random.default_rng(12)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        with pytest.raises(RuntimeError):
            generation_step(pop, problem, np.zeros(2), SuccessHistory.fresh(), rng, budget,
                            stats)

    def test_elitism_under_fixed_eps(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(2000)
        rng = np.random.default_rng(13)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        hist = SuccessHistory.fresh()
        eps = np.array([0.5, 0.5])
        refresh_relaxed(pop, eps)
        best = min(zip(pop.nu_eps, pop.f))
        while not budget.exhausted:
            generation_step(pop, problem, eps, hist, rng, budget, stats)
            now = min(zip(pop.nu_eps, pop.f))
            assert now <= best
            best = now

    def test_run_stats_monotone(self):
        problem = toy_constrained(5)
        budget = BudgetCounter(2000)
        rng = np.random.default_rng(14)
        stats = RunStats()
        pop = init_population(problem, 20, rng, budget, stats)
        hist = SuccessHistory.fresh()
        prev_sco = stats.best_sco
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(2), hist, rng, budget, stats)
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
        stats = RunStats()
        pop = init_population(problem, 50, rng, budget, stats)
        hist = SuccessHistory.fresh()
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(0), hist, rng, budget, stats)
        assert stats.f_gbest <= 1e-2
