"""The array-native generation: batched evaluation and constraint accounting
against the scalar definitions, the ranking against eps_compare, the budget
truncation, the fail-loud batch boundary, and the episode length."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlrelax import agent as qnet
from rlrelax.config import ExperimentConfig
from rlrelax.cop import (
    BudgetCounter,
    BudgetExhaustedError,
    ConstrainedProblem,
    Evaluation,
    ProblemDefinitionError,
    eps_compare,
    feasible_rows,
    is_feasible,
    relaxed_violation,
    relaxed_violations,
    sco,
    violation,
    violations,
)
from rlrelax.env import EpsilonControlEnv
from rlrelax.harness import train
from rlrelax.lshade import (
    Population,
    RunStats,
    SuccessHistory,
    episode_steps,
    generation_step,
    init_population,
)
from rlrelax.problems import synthetic_family

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def constraint_batches(draw):
    """(f, C, n_ineq, eps, delta_acc) with many values exactly at eps_j,
    -eps_j, +-delta_acc or zero, where the strict and non-strict
    comparisons decide."""
    p, q, n = draw(st.integers(0, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 8))
    eps = np.array([draw(st.floats(0.0, 10.0)) for _ in range(p + q)])
    delta_acc = draw(st.sampled_from([1e-3, 0.25, 2.0]))
    C = np.empty((n, p + q))
    for i in range(n):
        for j in range(p + q):
            kind = draw(st.sampled_from(["free", "eps", "-eps", "delta", "-delta", "zero"]))
            C[i, j] = {"free": lambda: draw(FINITE), "eps": lambda: eps[j],
                       "-eps": lambda: -eps[j], "delta": lambda: delta_acc,
                       "-delta": lambda: -delta_acc, "zero": lambda: 0.0}[kind]()
    f = np.array([draw(FINITE) for _ in range(n)])
    return f, C, p, eps, delta_acc


def rows(f, C, p):
    return [Evaluation(f[i], C[i, :p], C[i, p:]) for i in range(len(f))]


class TestBatchedAccounting:
    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_rows_equal_scalar_definitions(self, batch):
        f, C, p, eps, delta_acc = batch
        nu, nu_eps = violations(C, p), relaxed_violations(C, p, eps)
        ok = feasible_rows(C, p, delta_acc)
        for i, e in enumerate(rows(f, C, p)):
            assert nu[i] == violation(e)
            assert nu_eps[i] == relaxed_violation(e, eps)
            assert ok[i] == is_feasible(e, delta_acc)

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_observe_equals_folding_scalar_rows(self, batch):
        f, C, p, eps, delta_acc = batch
        batched = RunStats(delta_acc=delta_acc)
        batched.observe(Population.evaluated(np.zeros((len(f), 1)), f, C, p, delta_acc, eps))
        f_gbest, f_max, best_feasible_f, best_sco = np.inf, -np.inf, np.inf, np.inf
        for e in rows(f, C, p):
            f_gbest, f_max = min(f_gbest, e.f), max(f_max, e.f)
            if is_feasible(e, delta_acc):
                best_feasible_f = min(best_feasible_f, e.f)
            best_sco = min(best_sco, sco(e, delta_acc))
        assert (batched.f_gbest, batched.f_max) == (f_gbest, f_max)
        assert (batched.best_feasible_f, batched.best_sco) == (best_feasible_f, best_sco)

    def test_value_at_threshold_is_zeroed_and_feasible(self):
        C = np.array([[0.5, -0.25], [0.5000001, 0.25]])
        eps = np.array([0.5, 0.25])
        assert relaxed_violations(C, 1, eps).tolist() == [0.0, 0.5000001]
        assert feasible_rows(np.array([[1e-3, -1e-3]]), 1, 1e-3).tolist() == [True]


class TestRanking:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 2.5, 7.0]),
                              st.sampled_from([0.0, 0.5, 3.0])), min_size=1, max_size=12))
    def test_lexsort_equals_stable_sort_under_eps_compare(self, pairs):
        f, nu = (np.array(col) for col in zip(*pairs))
        n = len(pairs)
        pop = Population(x=np.zeros((n, 1)), f=f, C=np.zeros((n, 0)), nu=nu, nu_eps=nu,
                         feasible=np.ones(n, bool), n_ineq=0)
        expected = sorted(range(n), key=functools.cmp_to_key(
            lambda i, j: eps_compare((f[i], nu[i]), (f[j], nu[j]))))
        assert pop.ranking().tolist() == expected


def counting_problem(calls, fault=None):
    """1 inequality, 1 equality; ``fault(k, x)`` may replace call k's output."""
    def evaluator(x):
        calls.append(x.copy())
        e = Evaluation(float(np.sum(x * x)), np.array([x[0]]), np.array([x[1]]))
        return fault(len(calls) - 1, e) if fault else e

    return ConstrainedProblem(name="counting", dim=2, lower=np.full(2, -5.0),
                              upper=np.full(2, 5.0), n_ineq=1, n_eq=1, evaluator=evaluator)


class TestEvaluateBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12))
    def test_evaluates_exactly_the_remaining_rows_in_order(self, n, remaining):
        calls = []
        X = np.arange(2.0 * n).reshape(n, 2)
        budget = BudgetCounter(20)
        budget.fes = 20 - remaining
        if remaining == 0:
            with pytest.raises(BudgetExhaustedError):
                counting_problem(calls).evaluate_batch(X, budget)
            assert calls == []
            return
        f, C = counting_problem(calls).evaluate_batch(X, budget)
        k = min(n, remaining)
        assert f.shape == (k,) and C.shape == (k, 2)
        assert np.array_equal(np.array(calls), X[:k])
        assert budget.fes == 20 - remaining + k
        assert np.array_equal(C, X[:k])

    def test_one_row_evaluate_matches_batch(self):
        prob = counting_problem([])
        e = prob.evaluate(np.array([1.0, -2.0]))
        f, C = prob.evaluate_batch(np.array([[1.0, -2.0]]))
        assert (e.f, e.g.tolist(), e.h.tolist()) == (f[0], C[0, :1].tolist(), C[0, 1:].tolist())

    @pytest.mark.parametrize("fault, message", [
        (lambda e: Evaluation(e.f, np.zeros(2), e.h),
         r"counting: row 2: .*2 inequality / 1 equality.*declared 1/1"),
        (lambda e: Evaluation(e.f, e.g, np.zeros(0)),
         r"counting: row 2: .*1 inequality / 0 equality"),
        (lambda e: Evaluation(np.nan, e.g, e.h), r"counting: row 2: non-finite"),
        (lambda e: Evaluation(e.f, e.g, np.array([np.inf])), r"counting: row 2: non-finite"),
    ])
    def test_bad_row_is_named_and_never_reaches_the_population(self, fault, message):
        # init takes calls 0-5; the first generation's third trial is call 8
        calls = []
        prob = counting_problem(calls, lambda k, e: fault(e) if k == 8 else e)
        budget, stats = BudgetCounter(30), RunStats()
        pop = init_population(prob, 6, np.random.default_rng(0), budget, stats)
        before = (pop.x.copy(), pop.f.copy(), pop.C.copy())
        snapshot = (budget.fes, stats.f_gbest, stats.f_max, stats.best_sco, len(pop.archive))
        with pytest.raises(ProblemDefinitionError, match=message):
            generation_step(pop, prob, np.zeros(2), SuccessHistory.fresh(),
                            np.random.default_rng(1), budget, stats)
        assert len(calls) == 12  # the batch is checked after its last call
        for a, b in zip(before, (pop.x, pop.f, pop.C)):
            assert np.array_equal(a, b)
        assert (budget.fes, stats.f_gbest, stats.f_max, stats.best_sco,
                len(pop.archive)) == snapshot


class TestEpisodeSteps:
    @pytest.mark.parametrize("maxfes, n_pop, lpsr, steps", [
        (500, 50, False, 9), (96, 12, True, 12), (100, 12, False, 8), (96, 12, False, 7),
    ])
    def test_worked_examples(self, maxfes, n_pop, lpsr, steps):
        assert episode_steps(maxfes, n_pop, lpsr) == steps

    @settings(max_examples=40, deadline=None)
    @given(st.integers(4, 16), st.integers(0, 120), st.booleans())
    def test_equals_the_steps_the_env_takes(self, n_pop, extra, lpsr):
        maxfes = 2 * n_pop + extra
        env = EpsilonControlEnv(synthetic_family("sphere-linear", 0, 3),
                                np.random.default_rng(0), n_pop=n_pop, maxfes=maxfes, lpsr=lpsr)
        env.reset()
        steps = 0
        while not env.terminal:
            env.step_with_epsilon(np.zeros(1), 0.0)
            steps += 1
        assert steps == episode_steps(maxfes, n_pop, lpsr)

    @pytest.mark.parametrize("lpsr, maxfes_per_dim", [(True, 24), (False, 25)])
    def test_exploration_horizon_is_the_steps_taken(self, monkeypatch, lpsr, maxfes_per_dim):
        horizons = set()
        explore_rate = qnet.explore_rate

        def spy(step, total_steps, cfg):
            horizons.add(total_steps)
            return explore_rate(step, total_steps, cfg)

        monkeypatch.setattr(qnet, "explore_rate", spy)
        cfg = ExperimentConfig(problems=["synthetic/sphere-linear/0", "synthetic/rastrigin-ring/1"],
                               dims=[4], pop_size=12, maxfes_per_dim=maxfes_per_dim, lpsr=lpsr,
                               seed=2, epochs=2, buffer_capacity=32, batch_size=4)
        result = train(cfg)
        assert horizons == {sum(row["steps"] for row in result.episodes)}
