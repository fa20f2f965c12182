import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlrelax.config import ExperimentConfig
from rlrelax.cop import BudgetCounter
from rlrelax.env import EpsilonControlEnv
from rlrelax.features import (
    extract_state,
    mask_constraint_features,
    pairwise_tradeoff,
    top5_violation_mean,
)
from rlrelax.lshade import N_MIN, Population, RunStats, generation_step, init_population
from rlrelax.problems import SYNTHETIC_KINDS, ProblemRegistry
from reference import pairwise_tradeoff as reference_tradeoff


def make_pop(rows, n_ineq=1):
    """A one-run population from (x, f, constraint values) rows."""
    xs, fs, cs = zip(*rows)
    return Population.evaluated(np.array(xs, dtype=float)[None], np.array(fs, dtype=float),
                                np.array(cs, dtype=float), n_ineq)


def make_hist(pop, fes=50, maxfes=500, prev_action=1.0):
    budget = BudgetCounter(maxfes)
    budget.fes = fes
    nu_top5 = top5_violation_mean(pop.nu)
    return RunStats(
        f_gbest=pop.f.min(axis=1), f_max=pop.f.max(axis=1), f_pbest_0=pop.f.min(axis=1),
        nu_top5_0=nu_top5, nu_top5=nu_top5, prev_action=np.array([prev_action]), budget=budget,
        n_init=pop.size,
    )


def random_population(rng, n, dim, p=1, q=1):
    rows = [(rng.uniform(-5, 5, size=dim), rng.normal(),
             np.concatenate([rng.normal(size=p), rng.normal(size=q)])) for _ in range(n)]
    return make_pop(rows, n_ineq=p)


LOWER = np.full(3, -5.0)
UPPER = np.full(3, 5.0)


class TestTop5:
    def test_five_zeros_dominate(self):
        assert top5_violation_mean(np.array([0, 0, 0, 0, 0, 7.0])) == 0.0

    def test_mean_of_smallest_five(self):
        assert top5_violation_mean(np.array([1, 2, 3, 4, 5, 100.0])) == pytest.approx(3.0)

    def test_small_population_uses_all(self):
        assert top5_violation_mean(np.array([3, 6, 9.0])) == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top5_violation_mean(np.zeros(0))


class TestExtractState:
    def test_all_feasible_gives_full_fraction(self):
        pop = make_pop([(np.zeros(3), float(i), [-1.0]) for i in range(4)])
        s, = extract_state(pop, LOWER, UPPER, make_hist(pop))
        assert s[6] == 1.0

    def test_initial_conventions(self):
        rng = np.random.default_rng(0)
        pop = random_population(rng, 10, 3)
        hist = make_hist(pop, fes=50, maxfes=500, prev_action=1.0)
        s, = extract_state(pop, LOWER, UPPER, hist)
        assert s[8] == 1.0          # previous action starts fully relaxed
        assert s[7] == pytest.approx(50 / 500)
        assert s[4] == pytest.approx(1.0)  # pbest ratio at generation zero
        if hist.nu_top5_0 > 0:
            assert s[5] == pytest.approx(1.0)

    def test_pairwise_tradeoff_single_pair(self):
        a = (np.zeros(3), 1.0, [0.5])
        pop = make_pop([a, (np.ones(3), 2.0, [1.0])])
        s, = extract_state(pop, LOWER, UPPER, make_hist(pop))
        assert s[9] == 1.0
        pop2 = make_pop([a, (np.ones(3), 2.0, [0.25])])
        s, = extract_state(pop2, LOWER, UPPER, make_hist(pop2))
        assert s[9] == 0.0

    def test_equal_violation_pairs_count_zero(self):
        pop = make_pop([(np.zeros(3), 1.0, [0.5]), (np.ones(3), 2.0, [0.5])])
        s, = extract_state(pop, LOWER, UPPER, make_hist(pop))
        assert s[9] == 0.0

    def test_tradeoff_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(1)
        pop = random_population(rng, 12, 3)
        hist = make_hist(pop)
        s, = extract_state(pop, LOWER, UPPER, hist)
        perm = dataclasses.replace(pop)  # keep() rebinds the copy's arrays only
        perm.keep(rng.permutation(12)[None])
        s_perm, = extract_state(perm, LOWER, UPPER, hist)
        assert s[9] == pytest.approx(s_perm[9])
        assert 0.0 <= s[9] <= 1.0

    def test_affine_rescale_leaves_coordinates_features(self):
        rng = np.random.default_rng(2)
        pop = random_population(rng, 8, 3)
        hist = make_hist(pop)
        s, = extract_state(pop, LOWER, UPPER, hist)
        # rescale bounds and points by the same affine map
        scale, offset = 3.0, 7.0
        moved = dataclasses.replace(pop, x=pop.x * scale + offset)
        s2, = extract_state(moved, LOWER * scale + offset, UPPER * scale + offset, hist)
        assert s2[0] == pytest.approx(s[0])
        assert s2[2] == pytest.approx(s[2])

    def test_degenerate_population_finite(self):
        # identical members: objective range collapses, features stay finite
        pop = make_pop([(np.ones(3), 5.0, [2.0]) for _ in range(6)])
        hist = make_hist(pop)
        s, = extract_state(pop, LOWER, UPPER, hist)
        assert np.all(np.isfinite(s))
        assert s[1] == 0.0 and s[3] == 0.0

    def test_fuzz_always_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            pop = random_population(rng, n, 3)
            hist = make_hist(pop, fes=int(rng.integers(1, 500)), maxfes=500,
                             prev_action=float(rng.uniform()))
            s, = extract_state(pop, LOWER, UPPER, hist)
            assert s.shape == (10,)
            assert np.all(np.isfinite(s))

    def test_all_infeasible_finite(self):
        pop = make_pop([(np.full(3, i * 0.1), float(i), [5.0 + i]) for i in range(6)])
        s, = extract_state(pop, LOWER, UPPER, make_hist(pop))
        assert np.all(np.isfinite(s))
        assert s[6] == 0.0

    def test_pbest_ratio_guard_and_clip(self):
        pop = make_pop([(np.zeros(3), 5.0, [-1.0])])
        hist = make_hist(pop)
        hist.f_pbest_0 = np.array([0.0])  # near-zero initial best
        s, = extract_state(pop, LOWER, UPPER, hist)
        assert s[4] == 1.0
        hist.f_pbest_0 = np.array([1e-3])  # ratio would be 5000; clipped
        s, = extract_state(pop, LOWER, UPPER, hist)
        assert s[4] == 10.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            empty = Population.evaluated(np.zeros((1, 0, 3)), np.zeros(0), np.zeros((0, 1)), 1)
            extract_state(empty, LOWER, UPPER, None)


# few distinct values, so ties in f, in nu and in both are common; the
# extremes make differences overflow to +-inf
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1.7e308, -1.7e308]),
                    st.floats(-1e6, 1e6))


# both gaps are non-zero and of the same sign, but their product underflows to 0
_TINY_GAPS = [(0.0, 0.0), (2.225073858507e-311, 2.0504969607412742e-230)]


class TestPairwiseTradeoff:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_VALUES, _VALUES.map(abs)), max_size=40))
    @example(pairs=_TINY_GAPS)
    def test_equals_upper_triangle_oracle(self, pairs):
        f, nu = np.array(pairs, dtype=float).reshape(-1, 2).T
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = pairwise_tradeoff(f, nu), reference_tradeoff(f, nu)
        assert isinstance(got, float)
        assert got == want

    def test_tiny_gaps_of_the_same_sign_move_together(self):
        # s10 compares the signs of the differences, so a pair whose gaps are
        # too small to multiply still counts, where the product form drops it
        f, nu = np.array(_TINY_GAPS).T
        assert pairwise_tradeoff(f, nu) == 1.0
        assert (f[1] - f[0]) * (nu[1] - nu[0]) == 0.0


class TestMask:
    def test_masks_constraint_features(self):
        s = np.arange(1.0, 11.0)
        masked = mask_constraint_features(s)
        assert masked[5] == masked[6] == masked[8] == masked[9] == 0.0
        for i in (0, 1, 2, 3, 4, 7):
            assert masked[i] == s[i]

    def test_zero_vector_unchanged(self):
        z = np.zeros(10)
        assert np.array_equal(mask_constraint_features(z), z)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=10)
        once = mask_constraint_features(s)
        twice = mask_constraint_features(once)
        assert np.array_equal(once, twice)

    def test_does_not_mutate_input(self):
        s = np.ones(10)
        mask_constraint_features(s)
        assert np.all(s == 1.0)


class TestScriptedRunState:
    """The run record is complete from generation 0: a scripted L-SHADE run,
    with no env, observes finite features, and the same bits the env emits."""

    INSTANCES = st.one_of(
        st.tuples(st.sampled_from([f"synthetic/{k}/{s}" for k in SYNTHETIC_KINDS
                                   for s in (0, 1)]), st.integers(2, 8)),
        st.tuples(st.sampled_from(["cec12", "cec14"]), st.just(10)))

    @settings(max_examples=40, deadline=None)
    @given(instance=INSTANCES, n_pop=st.integers(N_MIN, 24), extra=st.integers(0, 120),
           lpsr=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_finite_from_generation_0_and_equal_to_env(self, instance, n_pop, extra, lpsr,
                                                       seed):
        problem = ProblemRegistry().lookup(*instance)
        maxfes, level = 2 * n_pop + extra, 0.3
        eps = np.full(problem.n_constraints, 0.05)

        rng = np.random.default_rng(seed)
        stats = RunStats(BudgetCounter(maxfes), n_pop, lpsr=lpsr)
        pop = init_population(problem, [rng], stats)
        scripted = [extract_state(pop, problem.lower, problem.upper, stats)[0]]
        while not stats.budget.exhausted:
            generation_step(pop, problem, eps, [rng], stats)
            stats.prev_action = np.array([level])
            scripted.append(extract_state(pop, problem.lower, problem.upper, stats)[0])
        assert all(np.all(np.isfinite(s)) for s in scripted)

        env = EpsilonControlEnv([problem], [np.random.default_rng(seed)],
                                ExperimentConfig(pop_size=n_pop, lpsr=lpsr), maxfes)
        emitted = [env.reset()[0]]
        while not env.terminal:
            env.step_with_epsilon(eps, level)
            emitted.append(env.state[0])
        assert [s.tobytes() for s in scripted] == [s.tobytes() for s in emitted]
