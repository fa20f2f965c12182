import numpy as np
import pytest

from rlrelax.cop import (
    BudgetCounter,
    BudgetExhaustedError,
    ConstrainedProblem,
    Evaluation,
    ProblemDefinitionError,
    eps_compare,
    epsilon_vector,
    is_feasible,
    relaxed_violation,
    sco,
    violation,
)


def ev(f=0.0, g=(), h=()):
    return Evaluation(f, np.array(g, dtype=float), np.array(h, dtype=float))


class TestViolation:
    def test_satisfied_inequality_contributes_zero(self):
        assert violation(ev(g=[-2.0])) == 0.0

    def test_hand_arithmetic(self):
        assert violation(ev(g=[3.0], h=[-1.5])) == 4.5

    def test_boundary_zero(self):
        assert violation(ev(g=[0.0], h=[0.0])) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ProblemDefinitionError):
            violation(ev(g=[np.nan]))

    def test_nonnegative_and_zero_iff_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            e = ev(g=rng.normal(size=3), h=rng.normal(size=2))
            nu = violation(e)
            assert nu >= 0.0
            exact_feasible = bool(np.all(e.g <= 0) and np.all(e.h == 0))
            assert (nu == 0.0) == exact_feasible


class TestRelaxedViolation:
    def test_below_threshold_zeroed(self):
        assert relaxed_violation(ev(g=[0.5]), [1.0]) == 0.0

    def test_equality_above_threshold_kept(self):
        assert relaxed_violation(ev(h=[-2.0]), [1.0]) == 2.0

    def test_mixed(self):
        assert relaxed_violation(ev(g=[0.5, 3.0]), [1.0, 1.0]) == 3.0

    def test_exactly_at_threshold_zeroed(self):
        assert relaxed_violation(ev(g=[1.0]), [1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relaxed_violation(ev(g=[0.5]), [1.0, 2.0])

    def test_zero_eps_equals_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q = rng.integers(0, 4), rng.integers(0, 4)
            e = ev(g=rng.normal(size=p) * 5, h=rng.normal(size=q) * 5)
            assert relaxed_violation(e, np.zeros(p + q)) == violation(e)

    def test_bounded_by_exact_and_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            e = ev(g=rng.normal(size=2) * 3, h=rng.normal(size=2) * 3)
            eps = rng.uniform(0, 4, size=4)
            r = relaxed_violation(e, eps)
            assert r <= violation(e) + 1e-15
            # raising any single component never increases the result
            j = rng.integers(4)
            bumped = eps.copy()
            bumped[j] += rng.uniform(0, 3)
            assert relaxed_violation(e, bumped) <= r + 1e-15


class TestEpsCompare:
    def test_objective_breaks_tie(self):
        assert eps_compare((1.0, 0.0), (2.0, 0.0)) == -1

    def test_violation_first(self):
        assert eps_compare((99.0, 0.1), (0.0, 0.5)) == -1

    def test_exact_tie(self):
        assert eps_compare((1.0, 0.3), (1.0, 0.3)) == 0

    def test_total_preorder(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            pairs = [(rng.normal(), rng.uniform(0, 2)) for _ in range(3)]
            a, b, c = pairs
            assert eps_compare(a, b) == -eps_compare(b, a)
            if eps_compare(a, b) <= 0 and eps_compare(b, c) <= 0:
                assert eps_compare(a, c) <= 0


class TestFeasibilityAndSco:
    def test_feasible_simple(self):
        assert is_feasible(ev(g=[-1.0], h=[0.0]))

    def test_within_accuracy(self):
        assert is_feasible(ev(g=[5e-4], h=[9e-4]), delta_acc=1e-3)

    def test_exceeds_accuracy(self):
        assert not is_feasible(ev(g=[2e-3]), delta_acc=1e-3)

    def test_sco_feasible_is_objective(self):
        assert sco(ev(f=4.0, g=[0.0], h=[0.0])) == 4.0

    def test_sco_infeasible_adds_violation(self):
        e = ev(f=0.0, g=[4.0], h=[-4.0])
        assert violation(e) == 8.0
        assert sco(e) == 8.0

    def test_sco_zeroes_violation_within_accuracy(self):
        assert sco(ev(f=4.0, g=[9e-4]), delta_acc=1e-3) == 4.0

    def test_sco_at_least_objective_when_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            e = ev(f=abs(rng.normal()), g=rng.normal(size=2))
            assert sco(e) >= e.f


class TestBudgetCounter:
    def test_counts_and_refuses(self):
        b = BudgetCounter(2)
        b.spend()
        b.spend()
        assert b.fes == 2 and b.exhausted
        with pytest.raises(BudgetExhaustedError):
            b.spend()

    def test_never_exceeds(self):
        b = BudgetCounter(5)
        for _ in range(5):
            b.spend()
            assert b.fes <= b.maxfes


class TestProblemWrapper:
    def _problem(self, evaluator, p=1, q=0):
        return ConstrainedProblem(
            name="t", dim=2, lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
            n_ineq=p, n_eq=q, evaluator=evaluator,
        )

    def test_charges_budget(self):
        prob = self._problem(lambda X: (np.zeros(len(X)), np.zeros((len(X), 1))))
        b = BudgetCounter(1)
        prob.evaluate(np.zeros(2), b)
        assert b.fes == 1
        with pytest.raises(BudgetExhaustedError):
            prob.evaluate(np.zeros(2), b)

    def test_wrong_arity_rejected(self):
        prob = self._problem(lambda X: (np.zeros(len(X)), np.zeros((len(X), 2))))
        with pytest.raises(ProblemDefinitionError):
            prob.evaluate(np.zeros(2))

    def test_nonfinite_rejected(self):
        prob = self._problem(lambda X: (np.full(len(X), np.inf), np.zeros((len(X), 1))))
        with pytest.raises(ProblemDefinitionError):
            prob.evaluate(np.zeros(2))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedProblem(
                name="bad", dim=2, lower=np.array([1.0, 0.0]), upper=np.array([1.0, 1.0]),
                n_ineq=0, n_eq=0, evaluator=lambda X: (np.zeros(len(X)), np.zeros((len(X), 0))),
            )


def test_epsilon_vector_validation():
    assert np.array_equal(epsilon_vector([0.0, 1.0], 2), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        epsilon_vector([-0.1])
    with pytest.raises(ValueError):
        epsilon_vector([np.inf])
