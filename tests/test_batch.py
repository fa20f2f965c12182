"""The array-native generation: batched evaluation and constraint accounting
against the scalar definitions, the ranking against eps_compare, the
in-order evaluation, the fail-loud batch boundary, the episode length, the batch
evaluators against their one-row outputs, the paper's invariants of the
row functions, and generation_step against the per-candidate generation of
tests/reference.py."""

import copy
import dataclasses
import functools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlrelax import agent as qnet
from rlrelax import lshade
from rlrelax.config import ExperimentConfig
from rlrelax.cop import (
    BudgetCounter,
    ConstrainedProblem,
    ProblemDefinitionError,
    eps_compare,
    epsilon_vector,
    relaxed_violations,
    row_accounting,
    violation_terms,
)
from rlrelax.env import EpsilonBase, EpsilonControlEnv
from rlrelax.harness import train
from rlrelax.lshade import (
    H_MEMORY,
    Draws,
    Population,
    RunStats,
    SuccessHistory,
    episode_steps,
    draw_generation,
    generation_step,
    init_population,
    refresh_relaxed,
    repair_bounds,
    select_survivor,
    update_memory,
)
from rlrelax.problems import SYNTHETIC_KINDS, ProblemRegistry, make_cec12, synthetic_family
import reference
from reference import (Evaluation, archive_after_selection, draw_generation_one_run, is_feasible,
                       relaxed_violation, sco, violation)

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
        nu, _, ok = row_accounting(C, p, delta_acc=delta_acc)
        nu_eps = relaxed_violations(C, p, eps)
        for i, e in enumerate(rows(f, C, p)):
            assert nu[i] == violation(e)
            assert nu_eps[i] == relaxed_violation(e, eps)
            assert ok[i] == is_feasible(e, delta_acc)

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_observe_equals_folding_scalar_rows(self, batch):
        f, C, p, eps, delta_acc = batch
        batched = RunStats(BudgetCounter(1), 1, delta_acc=delta_acc)
        batched.observe(Population.evaluated(np.zeros((1, len(f), 1)), f, C, p, delta_acc, eps))
        f_gbest, f_max, best_sco = np.inf, -np.inf, np.inf
        for e in rows(f, C, p):
            f_gbest, f_max = min(f_gbest, e.f), max(f_max, e.f)
            best_sco = min(best_sco, sco(e, delta_acc))
        assert (batched.f_gbest[0], batched.f_max[0], batched.best_sco[0]) == (f_gbest, f_max,
                                                                              best_sco)

    def test_value_at_threshold_is_zeroed_and_feasible(self):
        C = np.array([[0.5, -0.25], [0.5000001, 0.25]])
        eps = np.array([0.5, 0.25])
        assert relaxed_violations(C, 1, eps).tolist() == [0.0, 0.5000001]
        assert row_accounting(np.array([[1e-3, -1e-3]]), 1, delta_acc=1e-3)[2].tolist() == [True]


@st.composite
def constraint_stacks(draw):
    """(C, n_ineq, eps, delta_acc): R runs of up to 140 members with p, q in
    0..4, magnitudes from 1e-3 to 1e16 so that the order of a row's sum
    shows, and entries at +-eps, +-delta_acc, 0.0 or -0.0."""
    runs, n = draw(st.integers(1, 3)), draw(st.integers(1, 140))
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    delta_acc = draw(st.sampled_from([1e-3, 0.25, 2.0]))
    eps = rng.choice([0.0, 1e-3, 0.5, 3.0], size=(runs, p + q))
    C = rng.normal(size=(runs, n, p + q)) * 10.0 ** rng.integers(-3, 17, size=(runs, n, p + q))
    special = np.stack(np.broadcast_arrays(eps[:, None], -eps[:, None], delta_acc, -delta_acc,
                                           0.0, -0.0, C))
    # each of the six special values with chance 1/12, the random entry else
    C = np.take_along_axis(special, rng.integers(0, 12, size=(1, *C.shape)).clip(max=6), 0)[0]
    return C, p, eps, delta_acc


class TestViolationTerms:
    """The accounting over the stored terms V = [max(g, 0) | |h|] against
    the same accounting straight from C."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_stacks())
    def test_accounting_of_the_terms_equals_the_split_of_c(self, case):
        C, p, eps, delta_acc = case
        nu, nu_eps, ok = reference.split_accounting(C, p, eps, delta_acc)
        pop = Population.evaluated(np.zeros((*C.shape[:2], 1)), np.zeros(C.shape[:2]), C, p,
                                   delta_acc, eps)
        assert same_bits(pop.V, violation_terms(C, p))
        for got in ((pop.nu, pop.nu_eps, pop.feasible), row_accounting(C, p, eps, delta_acc)):
            assert all(map(same_bits, got, (nu, nu_eps, ok)))
        assert same_bits(relaxed_violations(C, p, eps), nu_eps)
        pop.nu_eps = None
        refresh_relaxed(pop, eps)
        assert same_bits(pop.nu_eps, nu_eps)
        whole = [(slice(None), SimpleNamespace(n_ineq=p, n_eq=C.shape[-1] - p))]
        base = EpsilonBase.from_population(pop, 1e-3, whole)
        assert same_bits(base.values, np.maximum(reference.eps_base_values(C, p), base.delta))

    def test_inequality_and_equality_terms_sum_apart(self):
        # summed along the row, each 1.0 rounds away: 1e16 + 1 + 1 == 1e16
        C = np.array([[1e16, 1.0, -1.0]])
        assert violation_terms(C, 1).sum(-1)[0] == 1e16
        split = 1.0000000000000002e16
        nu, nu_eps, _ = row_accounting(C, 1, epsilon_vector(np.zeros(3)))
        assert nu[0] == nu_eps[0] == split
        pop = Population.evaluated(np.zeros((1, 1, 1)), np.zeros(1), C, 1)
        refresh_relaxed(pop, np.zeros(3))
        assert pop.nu[0, 0] == pop.nu_eps[0, 0] == split


@st.composite
def repair_cases(draw):
    """(t, x, lower, upper): R = 1..4 runs of trials t and in-box parents x,
    per-coordinate bounds (some at 0.0 or -0.0), parents on a bound or
    inside, and trials on a bound, one ulp outside one, far outside, inside,
    at 0.0 or at -0.0."""
    runs, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(-100.0, 100.0), (0.0, 1.0), (-0.0, 2.5), (-1.0, 0.0), (-1.0, -0.0),
             (2.5, np.nextafter(2.5, np.inf)), (-1e300, 1e300)]
    lower, upper = np.array([pairs[i] for i in rng.integers(len(pairs), size=d)]).T
    free = rng.uniform(-1e3, 1e3, size=d)
    own = rng.random(d) < 0.3  # some coordinates get random bounds
    lower = np.where(own, free, lower)
    upper = np.where(own, free + rng.uniform(1e-9, 50.0, size=d), upper)
    inside = np.minimum(np.maximum(lower + rng.random((runs, n, d)) * (upper - lower), lower),
                        upper)
    x = np.stack(np.broadcast_arrays(inside, lower, upper))
    x = np.take_along_axis(x, rng.integers(3, size=(1, runs, n, d)), 0)[0]
    t = np.stack(np.broadcast_arrays(
        inside[::-1], lower, upper, np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf),
        lower - rng.uniform(0.0, 1e3, size=d), upper + rng.uniform(0.0, 1e3, size=d), 0.0, -0.0))
    t = np.take_along_axis(t, rng.integers(len(t), size=(1, runs, n, d)), 0)[0]
    return t, x, lower, upper


class TestRepairBounds:
    """repair_bounds repairs its first argument in place and returns it, so
    each call gets a copy: the oracle must see the unrepaired trials."""

    @staticmethod
    def repaired(t, x, lower, upper):
        args = [a.copy() for a in (t, x, lower, upper)]
        out = repair_bounds(*args)
        assert out is args[0]
        assert all(same_bits(a, b) for a, b in zip(args[1:], (x, lower, upper)))
        return out

    @settings(max_examples=300, deadline=None)
    @given(repair_cases())
    def test_one_pass_equals_the_two_pass_oracle(self, case):
        t, x, lower, upper = case
        repaired = self.repaired(t, x, lower, upper)
        assert same_bits(repaired, reference.repair_bounds(t, x, lower, upper))
        assert ((repaired >= lower) & (repaired <= upper)).all()

    def test_signed_zeros_and_one_ulp_outside(self):
        below = np.nextafter(0.0, -1.0)
        t = np.array([[[-0.0, 0.0, below, 0.0]]])
        x = np.array([[[0.5, -0.5, 0.5, -0.5]]])
        lower, upper = np.array([0.0, -1.0, 0.0, -1.0]), np.array([1.0, -0.0, 1.0, -0.0])
        repaired = self.repaired(t, x, lower, upper)
        assert same_bits(repaired, np.array([[[-0.0, 0.0, 0.25, 0.0]]]))
        assert same_bits(repaired, reference.repair_bounds(t, x, lower, upper))


class TestRowInvariants:
    """The invariants the paper relies on, on the shipped row functions."""

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_relaxed_violation_at_most_exact(self, batch):
        _, C, p, eps, _ = batch
        assert np.all(relaxed_violations(C, p, eps) <= row_accounting(C, p)[0])

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches(), st.data())
    def test_relaxed_violation_monotone_non_increasing_in_eps(self, batch, data):
        _, C, p, eps, _ = batch
        wider = eps + np.array([data.draw(st.floats(0.0, 10.0)) for _ in eps])
        at_zero = relaxed_violations(C, p, np.zeros_like(eps))
        assert np.array_equal(at_zero, row_accounting(C, p)[0])
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
        assert np.array_equal(row_accounting(at_delta, p, delta_acc=delta_acc)[2],
                              row_accounting(C, p, delta_acc=delta_acc)[2])

    @settings(max_examples=300, deadline=None)
    @given(constraint_batches())
    def test_violation_non_negative_and_zero_iff_exactly_feasible(self, batch):
        _, C, p, _, _ = batch
        nu = row_accounting(C, p)[0]
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
        pop = Population(x=np.zeros((n, 1)), f=f, V=np.zeros((n, 0)), nu=nu, nu_eps=nu,
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
    @given(st.integers(1, 12))
    def test_evaluates_the_rows_in_order_in_one_call(self, n):
        calls, batches = [], []
        problem = counting_problem(calls)

        def evaluator(X):
            batches.append(len(X))
            return problem.evaluator(X)

        X = np.arange(2.0 * n).reshape(n, 2)
        f, C = dataclasses.replace(problem, evaluator=evaluator).evaluate_batch(X)
        assert batches == [n]
        assert f.shape == (n,) and C.shape == (n, 2)
        assert np.array_equal(np.array(calls), X)
        assert np.array_equal(C, X)

    @pytest.mark.parametrize("make, X, message", [
        (lambda calls: ProblemRegistry().lookup("synthetic/sphere-linear/0", 10), np.zeros((3, 5)),
         r"synthetic/sphere-linear/0: batch shape \(3, 5\) for dim 10"),
        (counting_problem, np.zeros((4, 3)),
         r"counting: batch shape \(4, 3\) for dim 2"),
        (counting_problem, np.zeros(2), r"counting: batch shape \(2,\) for dim 2"),
        (counting_problem, np.zeros((1, 1, 2)), r"counting: batch shape \(1, 1, 2\)"),
    ])
    def test_batch_not_n_by_dim_rejected_before_the_evaluator(self, make, X, message):
        calls = []
        problem = make(calls)
        with pytest.raises(ProblemDefinitionError, match=message):
            problem.evaluate_batch(X)
        assert calls == []  # the counting evaluator was never called

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
        budget = BudgetCounter(30)
        stats = RunStats(budget, 6)
        pop = init_population(prob, [np.random.default_rng(0)], stats)
        before = (pop.x.copy(), pop.f.copy(), pop.V.copy())
        snapshot = (budget.fes, stats.f_gbest, stats.f_max, stats.best_sco, len(pop.archive[0]))
        with pytest.raises(ProblemDefinitionError, match=message):
            generation_step(pop, prob, np.zeros(2), [np.random.default_rng(1)], stats)
        assert len(calls) == 12  # the batch is checked after its last call
        for a, b in zip(before, (pop.x, pop.f, pop.V)):
            assert np.array_equal(a, b)
        assert (budget.fes, stats.f_gbest, stats.f_max, stats.best_sco,
                len(pop.archive[0])) == snapshot

    @pytest.mark.parametrize("in_f, k", [(False, 2), (False, 4), (True, 4)])
    def test_only_bad_value_in_the_last_column_or_row_is_named(self, in_f, k):
        def evaluator(X):
            f, C = X.sum(-1), X.copy()
            if in_f:
                f[k] = np.nan
            else:
                C[k, -1] = np.inf
            return f, C

        problem = ConstrainedProblem(name="last", dim=2, lower=np.full(2, -5.0),
                                     upper=np.full(2, 5.0), n_ineq=1, n_eq=1, evaluator=evaluator)
        with pytest.raises(ProblemDefinitionError, match=rf"last: row {k}: non-finite"):
            problem.evaluate_batch(np.arange(10.0).reshape(5, 2) / 10.0)


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
        env = EpsilonControlEnv([synthetic_family("sphere-linear", 0, 3)],
                                [np.random.default_rng(0)],
                                ExperimentConfig(pop_size=n_pop, lpsr=lpsr), maxfes)
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

        def spy(step, total_steps):
            horizons.add(total_steps)
            return explore_rate(step, total_steps)

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
        problem = ProblemRegistry().lookup(name, dim)
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

    @pytest.mark.parametrize("n", [1, 4, 100])
    @pytest.mark.parametrize("dim", [10, 50])
    def test_cec12_and_griewank_plane_equal_their_reference_formulas(self, dim, n):
        rng = np.random.default_rng(dim + n)
        o = rng.uniform(-50.0, 50.0, size=dim)
        X = rng.uniform(-100.0, 100.0, size=(n, dim))
        f, C = make_cec12(dim, o).evaluator(X)
        f_ref, C_ref = reference.cec12_rows(X, o)
        assert same_bits(f, f_ref) and same_bits(C, C_ref)
        f, _ = synthetic_family("griewank-plane", 3, dim, shift=o).evaluator(X)
        assert same_bits(f, reference.griewank(X - o))

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


class TestStackedDrawsAgainstOneRunOracle:
    """lshade.draw_generation over R runs against
    reference.draw_generation_one_run on a copy of each run's memory and
    generator: every field of every run bit for bit, and every generator
    left in the same state."""

    @settings(max_examples=200, deadline=None)
    @given(runs=st.integers(1, 4), n=st.integers(4, 40), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1),
           fills=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           terminal=st.lists(st.booleans(), min_size=4 * H_MEMORY, max_size=4 * H_MEMORY),
           low=st.lists(st.booleans(), min_size=4 * H_MEMORY, max_size=4 * H_MEMORY))
    @example(runs=4, n=40, d=3, seed=0, fills=[0.0, 0.3, 0.7, 1.0],
             terminal=[True, False] * (2 * H_MEMORY), low=[True] * (4 * H_MEMORY))
    def test_each_run_equals_its_oracle(self, runs, n, d, seed, fills, terminal, low):
        # a terminal slot gives CR = 0 whatever its normal draw; a slot with
        # m_f = 0.05 puts about 15% of its Cauchy draws at or below zero, so
        # F is redrawn, and the redraws come before the run's normal draws
        setup = np.random.default_rng(seed)
        slots = np.reshape(terminal, (4, H_MEMORY)), np.reshape(low, (4, H_MEMORY))
        hists = [SuccessHistory(m_f=np.where(slots[1][r], 0.05, setup.uniform(0.05, 1.0, H_MEMORY)),
                                m_cr=np.where(slots[0][r], np.nan, setup.uniform(size=H_MEMORY)))
                 for r in range(runs)]
        n_archive = [round(fill * n) for fill in fills[:runs]]
        rngs = [np.random.default_rng([seed, r]) for r in range(runs)]
        oracle_hists, oracle_rngs = copy.deepcopy(hists), copy.deepcopy(rngs)

        draws = draw_generation(hists, n, n_archive, d, rngs)
        assert draws.u.shape == (runs, n, d)
        for r in range(runs):
            want = draw_generation_one_run(oracle_hists[r], n, n_archive[r], d, oracle_rngs[r])
            for name, got, expected in zip(Draws._fields, draws, want):
                assert same_bits(got[r], expected), name
            assert rngs[r].bit_generator.state == oracle_rngs[r].bit_generator.state


class TestGenerationStepSelection:
    """Survivors, archive and memory after one generation, against
    select_survivor applied to each (parent, trial) pair in turn."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 30), dim=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           extra=st.integers(1, 40), terminal=st.lists(st.booleans(), min_size=H_MEMORY,
                                                       max_size=H_MEMORY),
           positive_eps=st.booleans())
    def test_survivors_archive_and_memory(self, n, dim, seed, extra, terminal, positive_eps):
        problem, batches = stepped_problem(dim), []

        def recording_evaluator(X):
            batches.append(X.copy())
            return problem.evaluator(X)

        recording = dataclasses.replace(problem, evaluator=recording_evaluator)
        rng = np.random.default_rng(seed)
        budget = BudgetCounter(n + extra)  # extra < n ends mid-way
        stats = RunStats(budget, n)
        pop = init_population(problem, [rng], stats)
        hist = SuccessHistory(
            m_f=rng.uniform(0.05, 1.0, size=H_MEMORY),
            m_cr=np.where(terminal, np.nan, rng.uniform(size=H_MEMORY)),
            k=int(rng.integers(H_MEMORY)))
        stats.hist = [hist]
        eps = rng.uniform(0.0, 3.0, size=2) if positive_eps else np.zeros(2)
        refresh_relaxed(pop, eps)
        parent = copy.deepcopy(pop)
        draws = draw_generation([hist], n, [0], dim, [copy.deepcopy(rng)])
        expected_hist = copy.deepcopy(hist)

        evaluated = generation_step(pop, recording, eps, [rng], stats)
        # the rows of the one run
        (x, f, archive), (x_0, f_0, nu_eps_0) = ((pop.x[0], pop.f[0], pop.archive[0]),
                                                 (parent.x[0], parent.f[0], parent.nu_eps[0]))

        f_t, C_t = problem.evaluator(batches[0])
        nu_t = relaxed_violations(C_t, 1, eps)
        assert evaluated == min(n, extra) == len(batches[0])
        won, weights = [], []
        for i in range(evaluated):
            _, success, w = select_survivor((float(f_0[i]), float(nu_eps_0[i])),
                                            (float(f_t[i]), float(nu_t[i])))
            assert same_bits(x[i], (batches[0] if success else x_0)[i])
            assert same_bits(f[i], (f_t if success else f_0)[i])
            if success:
                won.append(i)
                weights.append(w)
        assert same_bits(x[evaluated:], x_0[evaluated:])
        assert len(archive) == len(won)
        assert all(same_bits(a, x_0[i]) for a, i in zip(archive, won))
        reference.update_memory(expected_hist, draws.F[0, won], draws.CR[0, won], weights)
        assert same_bits(hist.m_f, expected_hist.m_f) and same_bits(hist.m_cr, expected_hist.m_cr)
        assert hist.k == expected_hist.k


def floored_evaluator(X):
    """Finite for every row in a box up to +-1e300, with frequent ties."""
    return (np.floor(np.abs(X).sum(-1)),
            np.stack([np.floor(1.0 - X.sum(-1)), np.round(X[:, 0])], axis=-1))


def edge_positions(rng, lower, upper, shape):
    """Positions in the box: on a bound, one ulp inside one, at 0.0 or -0.0
    clamped into the box, or uniform inside."""
    inside = np.minimum(np.maximum(lower + rng.random(shape) * (upper - lower), lower), upper)
    kinds = np.stack(np.broadcast_arrays(
        lower, upper, np.nextafter(lower, np.inf), np.nextafter(upper, -np.inf),
        np.minimum(np.maximum(0.0, lower), upper), np.minimum(np.maximum(-0.0, lower), upper),
        inside))
    return np.take_along_axis(kinds, rng.integers(len(kinds), size=(1, *shape)), 0)[0]


class TestTrialChainAgainstOracle:
    """The trials generation_step evaluates, built in place with the bitwise
    crossover select and the in-place repair, against
    reference.trial_positions on the same draws, bit for bit; and the
    parents that lose keep their bits, as the select reads pop.x through a view."""

    @staticmethod
    def step(x, archive, lower, upper, edit):
        """One generation of the runs x (R, N, D), at objectives and violations 0,
        under the draws of draw_generation passed through edit; returns the
        trials, the oracle's trials and the donors."""
        runs, n, d = x.shape
        batches, seen = [], []

        def recording(X):
            batches.append(X.copy())
            return floored_evaluator(X)

        def drawn(*args):
            seen.append(edit(draw_generation(*args)))
            return seen[-1]

        problem = ConstrainedProblem(name="floored", dim=d, lower=lower, upper=upper, n_ineq=1,
                                     n_eq=1, evaluator=recording)
        pop = Population.evaluated(x.copy(), np.zeros(runs * n), np.zeros((runs * n, 2)), 1)
        pop.archive = [a.copy() for a in archive]
        stats = RunStats(BudgetCounter(10 * n), n)
        stats.hist = [SuccessHistory.fresh() for _ in range(runs)]
        parent = copy.deepcopy(pop)
        with mock.patch.object(lshade, "draw_generation", drawn):
            generation_step(pop, problem, np.zeros(2), [np.random.default_rng([7, r])
                                                        for r in range(runs)], stats)
        (draws,), trials = seen, batches[0].reshape(x.shape)

        refresh_relaxed(parent, np.zeros(2))
        run = np.arange(runs)[:, None]
        x_pbest = x[run, parent.ranking()[run, draws.pbest]]
        x_r2 = np.stack([np.concatenate([x[r], archive[r]])[draws.r2[r]] for r in range(runs)])
        F = draws.F[..., None]
        mask = draws.u < draws.CR[..., None]
        mask[run, np.arange(n), draws.j] = True
        want = reference.trial_positions(x, x_pbest, x[run, draws.r1], x_r2, F, mask, lower, upper)
        donors = x + F * (x_pbest - x) + F * (x[run, draws.r1] - x_r2)

        f_t, C_t = floored_evaluator(batches[0])
        nu_t = relaxed_violations(C_t, 1, np.zeros(2))
        won = np.array([select_survivor((0.0, 0.0), (f, nu))[1]
                        for f, nu in zip(f_t.tolist(), nu_t.tolist())]).reshape(runs, n)
        assert same_bits(pop.x[~won], x[~won])
        assert same_bits(pop.x[won], trials[won])
        return trials, want, donors

    @settings(max_examples=150, deadline=None)
    @given(runs=st.sampled_from([1, 3, 40]), n=st.integers(4, 8), d=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), unit_f=st.booleans())
    def test_equals_the_oracle(self, runs, n, d, seed, unit_f):
        # rows of CR = 0 take only the forced coordinate, rows of CR = 1 every
        # one; F = 1 on parents one ulp inside a bound puts donors one ulp out
        rng = np.random.default_rng(seed)
        pairs = [(-100.0, 100.0), (0.0, 1.0), (-0.0, 2.5), (-1.0, 0.0), (-1.0, -0.0),
                 (1.5, 3.0), (2.5, np.nextafter(2.5, np.inf)), (-1e300, 1e300)]
        lower, upper = np.array([pairs[i] for i in rng.integers(len(pairs), size=d)]).T
        x = edge_positions(rng, lower, upper, (runs, n, d))
        archive = [edge_positions(rng, lower, upper, (int(rng.integers(n + 1)), d))
                   for _ in range(runs)]
        rows, ones = rng.integers(3, size=runs), rng.random((runs, n)) < 0.5

        def edit(draws):
            CR = np.where((rows == 0)[:, None], 0.0, draws.CR)
            CR[rows == 1] = 1.0
            return draws._replace(CR=CR, F=np.where(ones & unit_f, 1.0, draws.F))

        trials, want, _ = self.step(x, archive, lower, upper, edit)
        assert same_bits(trials, want)
        assert ((trials >= lower) & (trials <= upper)).all()

    def test_edges_one_ulp_outside_and_signed_zeros(self):
        # members 0-2 are row a, member 3 row b, one ulp inside a's bounds; the
        # donors a + (a - a) + (a - b) of members 0-2 lie one ulp outside the box
        # on coordinates 0 and 1, and are +0.0 against the bound -0.0 on 2
        lower, upper = np.array([1.5, -1.0, -1.0, 0.0]), np.array([2.0, 3.0, -0.0, 1.0])
        a = np.array([1.5, 3.0, -0.0, 0.25])
        b = np.array([np.nextafter(1.5, np.inf), np.nextafter(3.0, -np.inf), -0.0, 0.75])
        x = np.tile(np.stack([a, a, a, b]), (3, 1, 1))
        u = np.random.default_rng(0).random((3, 4, 4))

        def edit(draws):
            return draws._replace(
                F=np.ones((3, 4)), CR=np.array([[0.0] * 4, [1.0] * 4, [0.5] * 4]),
                pbest=np.zeros((3, 4), int), r1=np.tile([1, 2, 0, 0], (3, 1)),
                r2=np.tile([3, 3, 3, 1], (3, 1)), u=u, j=np.tile([0, 1, 2, 3], (3, 1)))

        trials, want, donors = self.step(x, [np.empty((0, 4))] * 3, lower, upper, edit)
        assert same_bits(trials, want)
        assert (donors[:, :3, 0] == np.nextafter(1.5, -np.inf)).all()
        assert (donors[:, :3, 1] == np.nextafter(3.0, np.inf)).all()
        assert same_bits(donors[:, :3, 2], np.zeros((3, 3)))
        forced = np.eye(4, dtype=bool)  # run 0 has CR = 0: member i takes coordinate i
        assert same_bits(trials[0][~forced], x[0][~forced])
        assert same_bits(trials[1], reference.repair_bounds(donors[1], x[1], lower, upper))


class TestMemoryAgainstOracle:
    """The stacked update_memory, fed the winners of R runs gathered as
    generation_step gathers them, against reference.update_memory on each
    run's own winners: equal bit for bit, run by run."""

    @staticmethod
    def check(hists, F, CR, won, weight):
        k = won.shape[1]  # below F's n when the budget ran dry mid-generation
        oracle = copy.deepcopy(hists)
        update_memory(hists, won.sum(1), F[:, :k][won], CR[:, :k][won], weight[won])
        for r, (hist, expected) in enumerate(zip(hists, oracle)):
            reference.update_memory(expected, F[r, :k][won[r]], CR[r, :k][won[r]],
                                    weight[r][won[r]])
            assert same_bits(hist.m_f, expected.m_f), r
            assert same_bits(hist.m_cr, expected.m_cr), r
            assert hist.k == expected.k, r

    @settings(max_examples=200, deadline=None)
    @given(runs=st.integers(1, 4), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_run_by_run(self, runs, n, seed, data):
        setup = np.random.default_rng(seed)
        k = data.draw(st.integers(1, n), label="k")
        F = 1.0 - setup.uniform(size=(runs, n))
        CR = setup.uniform(size=(runs, n))
        won = setup.uniform(size=(runs, k)) < data.draw(st.floats(0.0, 1.0), label="win rate")
        weight = setup.uniform(1e-3, 10.0, size=(runs, k))
        hists = []
        for r in range(runs):
            kind = data.draw(st.sampled_from(["plain", "no winner", "zero CR", "tiny weights"]))
            if kind == "no winner":
                won[r] = False
            elif kind == "zero CR":
                CR[r] = 0.0
            elif kind == "tiny weights":  # their sum falls below the 1e-300 guard
                weight[r] *= 10.0 ** -data.draw(st.integers(302, 320), label="exponent")
            terminal = data.draw(st.lists(st.booleans(), min_size=H_MEMORY, max_size=H_MEMORY))
            m_cr = np.where(terminal, np.nan, setup.uniform(size=H_MEMORY))
            hists.append(SuccessHistory(m_f=setup.uniform(0.05, 1.0, size=H_MEMORY), m_cr=m_cr,
                                        k=int(setup.integers(H_MEMORY))))
        self.check(hists, F, CR, won, weight)

    # winner counts at the edges of numpy's pairwise sum: below, at and past its
    # 8-wide unrolled blocks, and past the 128-element block where it recurses
    BLOCK_EDGES = (1, 7, 8, 9, 16, 17, 40, 129)

    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.sampled_from((0, *BLOCK_EDGES)), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pairwise_block_edges(self, counts, seed, data):
        setup = np.random.default_rng(seed)
        runs, n = len(counts), max(self.BLOCK_EDGES)
        F = 1.0 - setup.uniform(size=(runs, n))
        CR = setup.uniform(size=(runs, n))
        won = np.zeros((runs, n), dtype=bool)
        for r, c in enumerate(counts):
            won[r, setup.choice(n, c, replace=False)] = True
            zeros = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="share of zero CRs")
            signed_zero = np.where(setup.uniform(size=n) < 0.5, -0.0, 0.0)
            CR[r] = np.where(setup.uniform(size=n) < zeros, signed_zero, CR[r])
        weight = 10.0 ** setup.uniform(-200.0, 200.0, size=(runs, n))
        hists = [SuccessHistory(m_f=setup.uniform(0.05, 1.0, size=H_MEMORY),
                                m_cr=setup.uniform(size=H_MEMORY), k=int(setup.integers(H_MEMORY)))
                 for _ in range(runs)]
        self.check(hists, F, CR, won, weight)

    def test_zero_weights_divide_as_numpy_does(self):
        setup = np.random.default_rng(3)
        F, CR = 1.0 - setup.uniform(size=(2, 5)), setup.uniform(size=(2, 5))
        weight = np.zeros((2, 5))  # w * F sums to 0: the Lehmer mean is numpy's 0 / 0
        hists = [SuccessHistory.fresh() for _ in range(2)]
        with np.errstate(invalid="ignore"):
            self.check(hists, F, CR, np.ones((2, 5), dtype=bool), weight)
        assert np.isnan(hists[0].m_f[0])

    def test_each_edge_in_one_stack(self):
        setup = np.random.default_rng(7)
        n, k = 12, 9
        F, CR = 1.0 - setup.uniform(size=(4, n)), setup.uniform(0.1, 1.0, size=(4, n))
        won = np.ones((4, k), dtype=bool)
        won[0] = False                      # no winner: the memory stays as it was
        CR[1] = 0.0                         # all-zero CR: the slot goes terminal
        weight = setup.uniform(1e-3, 10.0, size=(4, k))
        weight[3] *= 1e-310                 # the weights sum below 1e-300
        hists = [SuccessHistory.fresh() for _ in range(4)]
        hists[2].m_cr[0] = np.nan           # a terminal slot stays NaN under CR > 0
        self.check(hists, F, CR, won, weight)
        assert [h.k for h in hists] == [0, 1, 1, 1]
        assert np.isnan(hists[1].m_cr[0]) and np.isnan(hists[2].m_cr[0])
        assert np.isfinite(hists[3].m_f[0]) and np.isfinite(hists[3].m_cr[0])


class TestArchiveAgainstListOracle:
    """The array archive and memories after generation_step, against the list
    archive of reference.archive_after_selection and reference.update_memory,
    given the same winners and a copy of each run's generator advanced past
    the generation's draws."""

    @settings(max_examples=100, deadline=None)
    @given(runs=st.integers(1, 4), n=st.integers(4, 30), dim=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 60),
           fills=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), lpsr=st.booleans())
    def test_rows_and_generator_states(self, runs, n, dim, seed, extra, fills, lpsr):
        problem, batches = stepped_problem(dim), []

        def recording_evaluator(X):
            batches.append(X.copy())
            return problem.evaluator(X)

        recording = dataclasses.replace(problem, evaluator=recording_evaluator)
        setup = np.random.default_rng(seed)
        rngs = [np.random.default_rng([seed, r]) for r in range(runs)]
        stats = RunStats(BudgetCounter(n + extra), n, lpsr=lpsr)  # extra < n ends mid-way
        pop = init_population(problem, rngs, stats)
        # archives of 0 to n + 3 rows: above n every append overflows
        pop.archive = [setup.uniform(-3.0, 3.0, size=(round(fill * (n + 3)), dim))
                       for fill in fills[:runs]]
        eps = setup.uniform(0.0, 3.0, size=(runs, 2))
        refresh_relaxed(pop, eps)
        parent, oracle_rngs, hists = (copy.deepcopy(a) for a in (pop, rngs, stats.hist))

        generation_step(pop, recording, eps, rngs, stats)
        k = len(batches[0]) // runs
        f_t, C_t = problem.evaluator(batches[0])
        f_t, nu_t = f_t.reshape(runs, k), relaxed_violations(C_t.reshape(runs, k, 2), 1, eps)
        for r in range(runs):
            draws = draw_generation_one_run(hists[r], n, len(parent.archive[r]), dim,
                                            oracle_rngs[r])
            won = [eps_compare((f_t[r, i], nu_t[r, i]), (parent.f[r, i], parent.nu_eps[r, i])) == -1
                   for i in range(k)]
            weights = [select_survivor((parent.f[r, i], parent.nu_eps[r, i]),
                                       (f_t[r, i], nu_t[r, i]))[2] for i in range(k) if won[i]]
            reference.update_memory(hists[r], draws.F[:k][won], draws.CR[:k][won], weights)
            assert same_bits(stats.hist[r].m_f, hists[r].m_f)
            assert same_bits(stats.hist[r].m_cr, hists[r].m_cr) and stats.hist[r].k == hists[r].k
            expected = archive_after_selection(parent.archive[r], parent.x[r], won, n,
                                               oracle_rngs[r], pop.size if lpsr else None)
            assert same_bits(pop.archive[r], np.reshape(expected, (-1, dim)))
            assert oracle_rngs[r].bit_generator.state == rngs[r].bit_generator.state
