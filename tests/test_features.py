import numpy as np
import pytest

from rlrelax.cop import BudgetCounter, Evaluation
from rlrelax.features import (
    extract_state,
    mask_constraint_features,
    top5_violation_mean,
)
from rlrelax.lshade import Individual, RunStats


def make_member(x, f, g=(), h=()):
    e = Evaluation(f, np.array(g, dtype=float), np.array(h, dtype=float))
    return Individual.from_evaluation(np.asarray(x, dtype=float), e)


def make_hist(members, fes=50, maxfes=500, prev_action=1.0):
    fs = [m.eval.f for m in members]
    budget = BudgetCounter(maxfes)
    budget.fes = fes
    return RunStats(
        f_gbest=min(fs), f_max=max(fs), f_pbest_0=min(fs),
        nu_top5_0=top5_violation_mean(members), prev_action=prev_action,
        budget=budget,
    )


def random_population(rng, n, dim, p=1, q=1):
    members = []
    for _ in range(n):
        x = rng.uniform(-5, 5, size=dim)
        members.append(make_member(x, rng.normal(), g=rng.normal(size=p),
                                   h=rng.normal(size=q)))
    return members


LOWER = np.full(3, -5.0)
UPPER = np.full(3, 5.0)


class TestTop5:
    def test_five_zeros_dominate(self):
        members = [make_member(np.zeros(1), 0.0, g=[v]) for v in (0, 0, 0, 0, 0, 7)]
        assert top5_violation_mean(members) == 0.0

    def test_mean_of_smallest_five(self):
        members = [make_member(np.zeros(1), 0.0, g=[v]) for v in (1, 2, 3, 4, 5, 100)]
        assert top5_violation_mean(members) == pytest.approx(3.0)

    def test_small_population_uses_all(self):
        members = [make_member(np.zeros(1), 0.0, g=[v]) for v in (3, 6, 9)]
        assert top5_violation_mean(members) == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            top5_violation_mean([])


class TestExtractState:
    def test_all_feasible_gives_full_fraction(self):
        members = [make_member(np.zeros(3), float(i), g=[-1.0]) for i in range(4)]
        s = extract_state(members, LOWER, UPPER, make_hist(members))
        assert s[6] == 1.0

    def test_initial_conventions(self):
        rng = np.random.default_rng(0)
        members = random_population(rng, 10, 3)
        hist = make_hist(members, fes=50, maxfes=500, prev_action=1.0)
        s = extract_state(members, LOWER, UPPER, hist)
        assert s[8] == 1.0          # previous action starts fully relaxed
        assert s[7] == pytest.approx(50 / 500)
        assert s[4] == pytest.approx(1.0)  # pbest ratio at generation zero
        if hist.nu_top5_0 > 0:
            assert s[5] == pytest.approx(1.0)

    def test_pairwise_tradeoff_single_pair(self):
        a = make_member(np.zeros(3), 1.0, g=[0.5])
        b = make_member(np.ones(3), 2.0, g=[1.0])
        s = extract_state([a, b], LOWER, UPPER, make_hist([a, b]))
        assert s[9] == 1.0
        b2 = make_member(np.ones(3), 2.0, g=[0.25])
        s = extract_state([a, b2], LOWER, UPPER, make_hist([a, b2]))
        assert s[9] == 0.0

    def test_equal_violation_pairs_count_zero(self):
        a = make_member(np.zeros(3), 1.0, g=[0.5])
        b = make_member(np.ones(3), 2.0, g=[0.5])
        s = extract_state([a, b], LOWER, UPPER, make_hist([a, b]))
        assert s[9] == 0.0

    def test_tradeoff_permutation_invariant_and_bounded(self):
        rng = np.random.default_rng(1)
        members = random_population(rng, 12, 3)
        hist = make_hist(members)
        s = extract_state(members, LOWER, UPPER, hist)
        perm = [members[i] for i in rng.permutation(12)]
        s_perm = extract_state(perm, LOWER, UPPER, hist)
        assert s[9] == pytest.approx(s_perm[9])
        assert 0.0 <= s[9] <= 1.0

    def test_affine_rescale_leaves_coordinates_features(self):
        rng = np.random.default_rng(2)
        members = random_population(rng, 8, 3)
        hist = make_hist(members)
        s = extract_state(members, LOWER, UPPER, hist)
        # rescale bounds and points by the same affine map
        scale, offset = 3.0, 7.0
        moved = []
        for m in members:
            moved.append(Individual(x=m.x * scale + offset, eval=m.eval,
                                    nu=m.nu, nu_eps=m.nu_eps))
        s2 = extract_state(moved, LOWER * scale + offset, UPPER * scale + offset, hist)
        assert s2[0] == pytest.approx(s[0])
        assert s2[2] == pytest.approx(s[2])

    def test_degenerate_population_finite(self):
        # identical members: objective range collapses, features stay finite
        members = [make_member(np.ones(3), 5.0, g=[2.0]) for _ in range(6)]
        hist = make_hist(members)
        s = extract_state(members, LOWER, UPPER, hist)
        assert np.all(np.isfinite(s))
        assert s[1] == 0.0 and s[3] == 0.0

    def test_fuzz_always_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            members = random_population(rng, n, 3)
            hist = make_hist(members, fes=int(rng.integers(1, 500)), maxfes=500,
                             prev_action=float(rng.uniform()))
            s = extract_state(members, LOWER, UPPER, hist)
            assert s.shape == (10,)
            assert np.all(np.isfinite(s))

    def test_all_infeasible_finite(self):
        members = [make_member(np.full(3, i * 0.1), float(i), g=[5.0 + i]) for i in range(6)]
        s = extract_state(members, LOWER, UPPER, make_hist(members))
        assert np.all(np.isfinite(s))
        assert s[6] == 0.0

    def test_pbest_ratio_guard_and_clip(self):
        members = [make_member(np.zeros(3), 5.0, g=[-1.0])]
        hist = make_hist(members)
        hist.f_pbest_0 = 0.0  # near-zero initial best
        s = extract_state(members, LOWER, UPPER, hist)
        assert s[4] == 1.0
        hist.f_pbest_0 = 1e-3  # ratio would be 5000; clipped
        s = extract_state(members, LOWER, UPPER, hist)
        assert s[4] == 10.0

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            extract_state([], LOWER, UPPER, None)


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
