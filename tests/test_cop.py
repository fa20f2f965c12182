import numpy as np
import pytest

from rlrelax.cop import (
    BudgetCounter,
    BudgetExhaustedError,
    ConstrainedProblem,
    ProblemDefinitionError,
    eps_compare,
    epsilon_vector,
    relaxed_violations,
    row_accounting,
)
from rlrelax.lshade import Population, RunStats


def row(g=(), h=()):
    """One candidate's constraint row, inequalities first, as a batch of one."""
    return np.array([[*g, *h]], dtype=float)


def nu(g=(), h=()):
    return row_accounting(row(g, h), len(g))[0][0]


def nu_eps(eps, g=(), h=()):
    return relaxed_violations(row(g, h), len(g), eps)[0]


def feasible(g=(), h=(), delta_acc=1e-3):
    return row_accounting(row(g, h), len(g), delta_acc=delta_acc)[2][0]


def sco(f, g=(), h=(), delta_acc=1e-3):
    """The score RunStats folds in for one candidate: objective plus
    violation, the violation zeroed when feasible within delta_acc."""
    stats = RunStats(BudgetCounter(1), 1, delta_acc=delta_acc)
    stats.observe(Population.evaluated(np.zeros((1, 1)), np.array([f]), row(g, h), len(g),
                                       delta_acc))
    return stats.best_sco


class TestViolation:
    def test_satisfied_inequality_contributes_zero(self):
        assert nu(g=[-2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert nu(g=[3.0], h=[-1.5]) == 4.5

    def test_boundary_zero(self):
        assert nu(g=[0.0], h=[0.0]) == 0.0

    def test_nonfinite_rejected(self):
        # the row functions take checked batches; evaluate_batch is where a
        # non-finite constraint value is rejected
        prob = ConstrainedProblem(
            name="t", dim=2, lower=np.full(2, -1.0), upper=np.ones(2), n_ineq=1, n_eq=0,
            evaluator=lambda X: (np.zeros(len(X)), np.full((len(X), 1), np.nan)))
        with pytest.raises(ProblemDefinitionError, match="non-finite"):
            prob.evaluate_batch(np.zeros((3, 2)))

    def test_nonnegative_and_zero_iff_feasible(self):
        rng = np.random.default_rng(7)
        C = np.column_stack([rng.normal(size=(200, 3)), rng.normal(size=(200, 2))])
        nus = row_accounting(C, 3)[0]
        assert np.all(nus >= 0.0)
        exact_feasible = np.all(C[:, :3] <= 0, axis=1) & np.all(C[:, 3:] == 0, axis=1)
        assert np.array_equal(nus == 0.0, exact_feasible)


class TestRelaxedViolation:
    def test_below_threshold_zeroed(self):
        assert nu_eps([1.0], g=[0.5]) == 0.0

    def test_equality_above_threshold_kept(self):
        assert nu_eps([1.0], h=[-2.0]) == 2.0

    def test_mixed(self):
        assert nu_eps([1.0, 1.0], g=[0.5, 3.0]) == 3.0

    def test_exactly_at_threshold_zeroed(self):
        assert nu_eps([1.0], g=[1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nu_eps([1.0, 2.0], g=[0.5])

    def test_zero_eps_equals_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q = rng.integers(0, 4), rng.integers(0, 4)
            g, h = rng.normal(size=p) * 5, rng.normal(size=q) * 5
            assert nu_eps(np.zeros(p + q), g, h) == nu(g, h)

    def test_bounded_by_exact_and_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            g, h = rng.normal(size=2) * 3, rng.normal(size=2) * 3
            eps = rng.uniform(0, 4, size=4)
            r = nu_eps(eps, g, h)
            assert r <= nu(g, h) + 1e-15
            # raising any single component never increases the result
            j = rng.integers(4)
            bumped = eps.copy()
            bumped[j] += rng.uniform(0, 3)
            assert nu_eps(bumped, g, h) <= r + 1e-15


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
        assert feasible(g=[-1.0], h=[0.0])

    def test_within_accuracy(self):
        assert feasible(g=[5e-4], h=[9e-4], delta_acc=1e-3)

    @pytest.mark.parametrize("delta_acc", [0.0, -1e-3, np.nan])
    def test_delta_acc_not_positive_rejected(self, delta_acc):
        # a NaN accuracy would read every row as infeasible
        with pytest.raises(ValueError, match="delta_acc must be positive"):
            row_accounting(row(g=[-1.0]), 1, delta_acc=delta_acc)

    def test_exceeds_accuracy(self):
        assert not feasible(g=[2e-3], delta_acc=1e-3)

    def test_sco_feasible_is_objective(self):
        assert sco(4.0, g=[0.0], h=[0.0]) == 4.0

    def test_sco_infeasible_adds_violation(self):
        assert nu(g=[4.0], h=[-4.0]) == 8.0
        assert sco(0.0, g=[4.0], h=[-4.0]) == 8.0

    def test_sco_zeroes_violation_within_accuracy(self):
        assert sco(4.0, g=[9e-4], delta_acc=1e-3) == 4.0

    def test_sco_at_least_objective_when_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            f = abs(rng.normal())
            assert sco(f, g=rng.normal(size=2)) >= f


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

    @pytest.mark.parametrize("k", [-3, np.nan])
    def test_negative_spend_rejected(self, k):
        # spending -3 would refund: fes -3 and 13 remaining of 10
        b = BudgetCounter(10)
        with pytest.raises(ValueError, match="must be >= 0"):
            b.spend(k)
        assert (b.fes, b.remaining) == (0, 10)


    def test_non_integral_maxfes_rejected(self):
        with pytest.raises(ValueError, match="maxfes must be a non-negative integer, got 2.7"):
            BudgetCounter(2.7)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_non_integral_spend_rejected(self, k):
        b = BudgetCounter(10)
        with pytest.raises(ValueError, match=f"cannot spend {k} evaluations: .* an integer"):
            b.spend(k)
        assert (b.fes, b.remaining) == (0, 10)

    def test_numpy_integers_counted_as_ints(self):
        b = BudgetCounter(np.int64(10))
        b.spend(np.int64(3))
        assert (b.fes, b.remaining) == (3, 7)
        assert type(b.fes) is int and type(b.maxfes) is int


class TestProblemWrapper:
    def _problem(self, evaluator, p=1, q=0):
        return ConstrainedProblem(
            name="t", dim=2, lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
            n_ineq=p, n_eq=q, evaluator=evaluator,
        )

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
