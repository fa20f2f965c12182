"""The array-native generation: batched evaluation and constraint accounting
against the scalar definitions, the ranking against eps_compare, the budget
truncation, the fail-loud batch boundary, the episode length, the batch
evaluators against their one-row outputs, the paper's invariants of the
row functions, and generation_step against the per-candidate generation of
tests/reference.py."""

import copy
import dataclasses
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
    ProblemDefinitionError,
    eps_compare,
    feasible_rows,
    relaxed_violations,
    violations,
)
from rlrelax.env import EpsilonControlEnv
from rlrelax.harness import train
from rlrelax.lshade import (
    H_MEMORY,
    Population,
    RunStats,
    SuccessHistory,
    episode_steps,
    generation_step,
    init_population,
)
from rlrelax.problems import SYNTHETIC_KINDS, registry_lookup, synthetic_family
from reference import (Evaluation, is_feasible, reference_generation, relaxed_violation, sco,
                       violation)

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


class TestRowInvariants:
    """The invariants the paper relies on, on the shipped row functions."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_relaxed_violation_at_most_exact(self, batch):
        _, C, p, eps, _ = batch
        assert np.all(relaxed_violations(C, p, eps) <= violations(C, p))

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches(), st.data())
    def test_relaxed_violation_monotone_non_increasing_in_eps(self, batch, data):
        _, C, p, eps, _ = batch
        wider = eps + np.array([data.draw(st.floats(0.0, 10.0)) for _ in eps])
        at_zero = relaxed_violations(C, p, np.zeros_like(eps))
        assert np.array_equal(at_zero, violations(C, p))
        assert np.all(relaxed_violations(C, p, eps) <= at_zero)
        assert np.all(relaxed_violations(C, p, wider) <= relaxed_violations(C, p, eps))

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_value_exactly_at_threshold_is_zeroed(self, batch):
        # zeroing every entry at its threshold changes nothing
        _, C, p, eps, delta_acc = batch
        at_eps = np.where(np.abs(C) == eps, 0.0, C)
        assert np.array_equal(relaxed_violations(at_eps, p, eps), relaxed_violations(C, p, eps))
        at_delta = np.where(np.abs(C) == delta_acc, 0.0, C)
        assert np.array_equal(feasible_rows(at_delta, p, delta_acc),
                              feasible_rows(C, p, delta_acc))

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_violation_non_negative_and_zero_iff_exactly_feasible(self, batch):
        _, C, p, _, _ = batch
        nu = violations(C, p)
        exactly_feasible = np.all(C[:, :p] <= 0.0, axis=1) & np.all(C[:, p:] == 0.0, axis=1)
        assert np.all(nu >= 0.0)
        assert np.array_equal(nu == 0.0, exactly_feasible)

    @settings(max_examples=100, deadline=None)
    @given(constraint_batches(), st.data())
    def test_eps_length_mismatch_is_rejected(self, batch, data):
        _, C, p, _, _ = batch
        m = data.draw(st.integers(0, 8).filter(lambda m: m != C.shape[1]))
        with pytest.raises(ValueError, match="length"):
            relaxed_violations(C, p, np.ones(m))


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
    """1 inequality, 1 equality; ``calls`` records every row evaluated, and
    ``fault(i, f, C)`` replaces the output of the batch holding row 8,
    which is its row i."""
    def evaluator(X):
        first = len(calls)
        calls.extend(x.copy() for x in X)
        f, C = np.sum(X * X, axis=-1), X[:, :2].copy()
        return fault(8 - first, f, C) if fault and first <= 8 < len(calls) else (f, C)

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
        f_1, c_1 = prob.evaluate(np.array([1.0, -2.0]))
        f, C = prob.evaluate_batch(np.array([[1.0, -2.0]]))
        assert type(f_1) is float and c_1.shape == (prob.n_constraints,)
        assert (f_1, c_1.tolist()) == (f[0], C[0].tolist())

    @pytest.mark.parametrize("fault, message", [
        (lambda i, f, C: (f, np.column_stack([np.zeros((len(f), 2)), C[:, 1:]])),
         r"counting: evaluator returned f \(6,\), C \(6, 3\) for 6 rows, "
         r"declared f \(6,\), C \(6, 2\) \(1 inequality / 1 equality\)"),
        (lambda i, f, C: (f, C[:, :1]), r"counting: .*C \(6, 1\).*declared .*C \(6, 2\)"),
        (lambda i, f, C: (np.where(np.arange(len(f)) == i, np.nan, f), C),
         r"counting: row 2: non-finite"),
        (lambda i, f, C: (f, np.where(np.arange(len(f))[:, None] == i, [0.0, np.inf], C)),
         r"counting: row 2: non-finite"),
    ])
    def test_bad_row_is_named_and_never_reaches_the_population(self, fault, message):
        # init evaluates rows 0-5; the first generation's third trial is row 8
        calls = []
        prob = counting_problem(calls, fault)
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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ALL_PROBLEMS = ["cec12", "cec14"] + [f"synthetic/{kind}/{seed}"
                                     for seed, kind in enumerate(SYNTHETIC_KINDS)]


class TestBatchEvaluators:
    @pytest.mark.parametrize("dim", [10, 30, 50])
    @pytest.mark.parametrize("name", ALL_PROBLEMS)
    def test_batch_rows_equal_one_row_outputs(self, name, dim):
        problem = registry_lookup(name, dim)
        rng = np.random.default_rng(dim)
        X = np.concatenate([rng.uniform(problem.lower, problem.upper, size=(30, dim)),
                            problem.feasible_point + rng.normal(scale=1e-3, size=(10, dim))])
        f, C = problem.evaluator(X)
        assert f.shape == (40,) and C.shape == (40, problem.n_constraints)
        for k in (1, 7, 40):
            f_k, C_k = problem.evaluator(X[:k])
            assert same_bits(f_k, f[:k]) and same_bits(C_k, C[:k])
        for i, x in enumerate(X):
            f_i, C_i = problem.evaluator(X[i:i + 1])
            assert same_bits(f_i, f[i:i + 1]) and same_bits(C_i, C[i:i + 1])
            f_1, c_1 = problem.evaluate(x)
            assert same_bits(np.float64(f_1), f[i]) and same_bits(c_1, C[i])

    def test_rosenbrock_cubic_cubes_each_value_as_a_scalar(self):
        # an array ** 3 rounds about 3% of these cubes differently from pow()
        rng = np.random.default_rng(3)
        o = rng.uniform(-50.0, 50.0, size=10)
        X = rng.uniform(-100.0, 100.0, size=(400, 10))
        _, C = synthetic_family("rosenbrock-cubic", 5, 10, shift=o).evaluator(X)
        y = (X - o).tolist()
        assert same_bits(C[:, 0], np.array([(r[0] - 1.0) ** 3 - r[1] + 1.0 for r in y]))


def stepped_problem(dim):
    """Rounded values, so ties in the objective and in the relaxed violation
    (which keep the parent) are common."""
    def evaluator(X):
        return (np.floor(np.sum(X * X, axis=-1)),
                np.stack([np.floor(1.0 - np.sum(X, axis=-1)), np.round(X[:, 0])], axis=-1))

    return ConstrainedProblem(name="stepped", dim=dim, lower=np.full(dim, -3.0),
                              upper=np.full(dim, 3.0), n_ineq=1, n_eq=1, evaluator=evaluator)


def run_state(pop, hist, stats, budget, rng):
    rows = [getattr(pop, name) for name in ("x", "f", "C", "nu", "nu_eps", "feasible")]
    numbers = [getattr(stats, f.name) for f in dataclasses.fields(stats) if f.name != "budget"]
    return (rows, pop.archive, [hist.m_f, hist.m_cr], hist.k, numbers,
            (budget.fes, budget.maxfes), rng.bit_generator.state)


def assert_same_run_state(a, b):
    rows_a, archive_a, hist_a, k_a, nums_a, budget_a, rng_a = a
    rows_b, archive_b, hist_b, k_b, nums_b, budget_b, rng_b = b
    for arrays_a, arrays_b in ((rows_a, rows_b), (archive_a, archive_b), (hist_a, hist_b)):
        assert len(arrays_a) == len(arrays_b)
        assert all(same_bits(u, v) for u, v in zip(arrays_a, arrays_b))
    assert all(same_bits(np.float64(u), np.float64(v)) for u, v in zip(nums_a, nums_b))
    assert (k_a, budget_a, rng_a) == (k_b, budget_b, rng_b)


class TestGenerationStepEqualsScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(4, 30), dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           archive_fill=st.floats(0.0, 1.0), extra=st.integers(1, 90), lpsr=st.booleans(),
           terminal=st.lists(st.booleans(), min_size=H_MEMORY, max_size=H_MEMORY),
           positive_eps=st.booleans())
    def test_bitwise_equal_over_a_run(self, n, dim, seed, archive_fill, extra, lpsr,
                                      terminal, positive_eps):
        problem = stepped_problem(dim)
        rng = np.random.default_rng(seed)
        budget, stats = BudgetCounter(n + extra), RunStats()
        pop = init_population(problem, n, rng, budget, stats)
        pop.archive = [rng.uniform(-3.0, 3.0, size=dim) for _ in range(round(archive_fill * n))]
        hist = SuccessHistory(m_f=rng.uniform(0.05, 1.0, size=H_MEMORY),
                              m_cr=np.where(terminal, np.nan, rng.uniform(size=H_MEMORY)),
                              k=int(rng.integers(H_MEMORY)))
        eps = rng.uniform(0.0, 3.0, size=2) if positive_eps else np.zeros(2)
        kwargs = dict(lpsr=lpsr, n_init=n + int(rng.integers(n)))
        ref = copy.deepcopy((pop, hist, stats, budget, rng))
        ref_pop, ref_hist, ref_stats, ref_budget, ref_rng = ref
        while not budget.exhausted:  # the last generation may end mid-way
            evaluated = generation_step(pop, problem, eps, hist, rng, budget, stats, **kwargs)
            assert evaluated == reference_generation(ref_pop, problem, eps, ref_hist, ref_rng,
                                                     ref_budget, ref_stats, **kwargs)
            assert_same_run_state(run_state(pop, hist, stats, budget, rng), run_state(*ref))
