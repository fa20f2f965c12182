import numpy as np
import pytest

from rlrelax.problems import (
    SYNTHETIC_KINDS,
    ProblemRegistry,
    UnknownProblemError,
    load_shift_table,
    make_cec12,
    make_cec14,
    registry_lookup,
    synthetic_family,
)
from reference import evaluation, is_feasible, sco, violation


def cec12(x, shift):
    """One candidate of cec12 at an explicit shift, through the one-row view."""
    return evaluation(make_cec12(len(x), shift), x)


def cec14(x, shift):
    return evaluation(make_cec14(len(x), shift), x)


class TestCec12:
    def test_at_shift_point(self):
        # y = 0: rastrigin terms vanish, g1 = 4 violated, h1 = -4
        for dim in (2, 10):
            o = np.zeros(dim)
            e = cec12(np.zeros(dim), o)
            assert e.f == pytest.approx(0.0, abs=1e-12)
            assert e.g[0] == 4.0
            assert e.h[0] == -4.0
            assert violation(e) == pytest.approx(8.0, abs=1e-12)
            assert sco(e) == pytest.approx(8.0, abs=1e-12)

    def test_unit_vector_feasible(self):
        e = cec12(np.ones(4), np.zeros(4))
        assert e.f == pytest.approx(4.0, abs=1e-9)
        assert e.g[0] == pytest.approx(0.0, abs=1e-12)
        assert e.h[0] == pytest.approx(0.0, abs=1e-12)
        assert is_feasible(e)
        assert sco(e) == pytest.approx(4.0, abs=1e-9)

    def test_one_dim_point(self):
        e = cec12(np.array([2.0]), np.zeros(1))
        assert e.f == pytest.approx(4.0, abs=1e-9)  # cos(4 pi) = 1
        assert e.g[0] == 2.0
        assert e.h[0] == pytest.approx(0.0, abs=1e-12)

    def test_sphere_shell_is_feasible(self):
        # any y with |y|^2 = 4 and sum|y| >= 4 violates nothing
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(200):
            y = rng.normal(size=10)
            y *= 2.0 / np.linalg.norm(y)
            if np.sum(np.abs(y)) >= 4.0:
                e = cec12(y, np.zeros(10))
                assert violation(e) <= 1e-12
                found += 1
        assert found > 50  # the shell region is not rare in 10-D


class TestCec14:
    def test_at_shift_point(self):
        e = cec14(np.zeros(10), np.zeros(10))
        assert e.f == 0.0
        assert e.g[0] == -1000.0
        assert e.h[0] == 1.0  # cos 0 + sin 0
        assert not is_feasible(e)

    def test_equality_root(self):
        y = np.zeros(10)
        y[0] = 3.0 * np.pi / 4.0
        e = cec14(y, np.zeros(10))
        assert e.h[0] == pytest.approx(0.0, abs=1e-12)
        assert e.g[0] < 0.0
        assert is_feasible(e)

    def test_inequality_violated(self):
        e = cec14(np.array([200.0, 0.0]), np.zeros(2))
        assert e.g[0] == pytest.approx(40000.0 - 200.0)

    def test_equality_depends_only_on_objective(self):
        # two points with the same max-abs coordinate share h exactly
        a = cec14(np.array([5.0, 1.0, -2.0]), np.zeros(3))
        b = cec14(np.array([0.0, -5.0, 3.0]), np.zeros(3))
        assert a.f == b.f == 5.0
        assert a.h[0] == b.h[0]


class TestSyntheticFamilies:
    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_certified_feasible_point(self, kind, seed):
        for dim in (2, 5, 10):
            prob = synthetic_family(kind, seed, dim)
            assert prob.feasible_point is not None
            assert np.all(prob.feasible_point >= prob.lower)
            assert np.all(prob.feasible_point <= prob.upper)
            e = evaluation(prob, prob.feasible_point)
            assert violation(e) <= 1e-9
            assert is_feasible(e)

    def test_deterministic(self):
        a = synthetic_family("rastrigin-ring", 3, 10)
        b = synthetic_family("rastrigin-ring", 3, 10)
        x = np.linspace(-50, 50, 10)
        ea, eb = evaluation(a, x), evaluation(b, x)
        assert ea.f == eb.f
        assert np.array_equal(ea.g, eb.g)
        assert np.array_equal(ea.h, eb.h)

    def test_mix_of_constraint_counts(self):
        ps = {synthetic_family(k, 0, 5).n_ineq for k in SYNTHETIC_KINDS}
        qs = {synthetic_family(k, 0, 5).n_eq for k in SYNTHETIC_KINDS}
        assert ps == {1, 2}
        assert qs == {0, 1}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            synthetic_family("nope", 0, 5)

    def test_sphere_linear_example(self):
        prob = synthetic_family("sphere-linear", 0, 10)
        e = evaluation(prob, prob.feasible_point)
        assert violation(e) == 0.0


class TestShifts:
    def test_equivariance(self):
        rng = np.random.default_rng(23)
        for name, ctor in (("cec12", make_cec12), ("cec14", make_cec14)):
            shifted = ctor(10)
            unshifted = ctor(10, shift=np.zeros(10))
            o = shifted.feasible_point - unshifted.feasible_point  # recover o
            for _ in range(20):
                z = rng.uniform(-40, 40, size=10)
                ea = evaluation(shifted, z + o)
                eb = evaluation(unshifted, z)
                assert ea.f == pytest.approx(eb.f, rel=1e-9, abs=1e-9)
                assert ea.g[0] == pytest.approx(eb.g[0], rel=1e-9, abs=1e-9)
                assert ea.h[0] == pytest.approx(eb.h[0], rel=1e-9, abs=1e-9)

    def test_shift_interior(self):
        for dim in (10, 30):
            prob = make_cec12(dim)
            o = prob.feasible_point - np.concatenate([np.ones(4), np.zeros(dim - 4)])
            assert np.all(np.abs(o) < 100.0)

    def test_shift_file_roundtrip(self, tmp_path):
        path = tmp_path / "shifts.txt"
        path.write_text(
            "# test shifts\n"
            "cec12 3\n"
            "1.5 -2.25 0.0\n"
            "cec14 2\n"
            "10 20\n"
        )
        table = load_shift_table(path)
        assert np.array_equal(table[("cec12", 3)], [1.5, -2.25, 0.0])
        assert np.array_equal(table[("cec14", 2)], [10.0, 20.0])

    def test_shift_file_bad_count(self, tmp_path):
        path = tmp_path / "shifts.txt"
        path.write_text("cec12 3\n1.0 2.0\n")
        with pytest.raises(ValueError, match="declares dim 3"):
            load_shift_table(path)

    def test_shift_file_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "shifts.txt"
        path.write_text("cec12 2\n150.0 0.0\n")
        with pytest.raises(ValueError, match="strictly inside"):
            load_shift_table(path)

    def test_registry_uses_shift_table(self):
        o = np.arange(10, dtype=float)
        reg = ProblemRegistry({("cec12", 10): o})
        prob = reg.lookup("cec12", 10)
        e = evaluation(prob, o)  # y = 0 there
        assert e.f == pytest.approx(0.0, abs=1e-9)
        assert e.g[0] == 4.0

    def test_registry_shift_table_covers_synthetics(self):
        name = "synthetic/sphere-linear/0"
        o = np.linspace(-20, 20, 10)
        reg = ProblemRegistry({(name, 10): o})
        prob = reg.lookup(name, 10)
        assert evaluation(prob, o).f == 0.0  # objective minimum sits at the shift
        # the certified feasible point follows the override
        assert is_feasible(evaluation(prob, prob.feasible_point))


class TestRegistry:
    def test_lookup_cec(self):
        prob = registry_lookup("cec12", 10)
        assert prob.name == "cec12" and prob.dim == 10

    def test_unsupported_dim(self):
        with pytest.raises(UnknownProblemError, match="supports dims"):
            registry_lookup("cec12", 7)

    def test_synthetic_pattern(self):
        prob = registry_lookup("synthetic/sphere-linear/0", 50)
        assert prob.dim == 50
        again = registry_lookup("synthetic/sphere-linear/0", 50)
        x = np.full(50, 1.25)
        assert evaluation(prob, x).f == evaluation(again, x).f

    def test_unknown_name_lists_valid(self):
        with pytest.raises(UnknownProblemError, match="cec12"):
            registry_lookup("mystery", 10)

    def test_bad_synthetic_seed(self):
        with pytest.raises(UnknownProblemError):
            registry_lookup("synthetic/sphere-linear/zero", 10)
