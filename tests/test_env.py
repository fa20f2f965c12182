import itertools
import math
import pickle
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlrelax import cop, env as env_module, harness, lshade
from rlrelax.agent import ReplayBuffer
from rlrelax.config import ConfigError, ExperimentConfig
from rlrelax.cop import ConstrainedProblem
from rlrelax.env import (
    REWARD_VARIANTS,
    SCHEMES,
    STEP_COLUMNS,
    ActionSpace,
    EpsilonBase,
    EpsilonControlEnv,
    epsilon_from_action,
    epsilon_linear_step,
    rewards,
)
from rlrelax.lshade import N_MIN, episode_steps
from rlrelax.problems import SYNTHETIC_KINDS, ProblemRegistry, synthetic_family

from reference import action_epsilon, compute_reward, reward_components


class TestActionSpace:
    def test_exponential_levels(self):
        space = ActionSpace.for_scheme("exponential")
        assert space.n_actions == 11
        assert np.allclose(space.levels, np.arange(11) / 10.0)

    def test_aa_levels(self):
        space = ActionSpace.for_scheme("linear-aa")
        assert space.n_actions == 7
        assert np.allclose(space.levels, [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])

    def test_ca_levels(self):
        space = ActionSpace.for_scheme("linear-ca")
        assert space.n_actions == 11
        assert np.allclose(space.levels, np.arange(-5, 6) * 0.05)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ActionSpace.for_scheme("quadratic")

    def test_normalized_levels_unit_interval(self):
        # the level the decoder records for every action lies in [0, 1]
        for scheme in SCHEMES:
            env = make_env(pop_size=20, maxfes=200, action_scheme=scheme)
            env.reset()
            for i in range(env.action_space.n_actions):
                (level,) = env.epsilon_for_action(i)[1].tolist()
                assert 0.0 <= level <= 1.0

    def test_index_array_equals_each_index(self):
        # a run's row and level under an index array are those of its index alone
        for scheme in SCHEMES:
            env = make_env(runs=3, pop_size=20, maxfes=200, action_scheme=scheme)
            env.reset()
            n = env.action_space.n_actions
            for idx in ([0, 1, 2], [n - 1, 3, 0], np.array([2, n - 2, 5])):
                eps, level = env.epsilon_for_action(idx)
                for r, i in enumerate(list(idx)):
                    eps_i, level_i = env.epsilon_for_action(i)
                    assert eps[r].tobytes() == eps_i[r].tobytes()
                    assert level[r].tobytes() == level_i[r].tobytes()
                if scheme != "exponential":  # numpy's idx / (n - 1) is Python's i / (n - 1)
                    assert level.tolist() == [int(i) / (n - 1) for i in idx]

    @pytest.mark.parametrize("index", [-1, 7.5, True, False, "n_actions", [0, -1]])
    def test_bad_index_rejected(self, index):
        # two runs, so that [0, -1] reaches the range check; nothing changes
        for scheme in SCHEMES:
            env = make_env(runs=2, pop_size=20, maxfes=200, action_scheme=scheme)
            env.reset()
            before = snapshot(env)
            bad = env.action_space.n_actions if index == "n_actions" else index
            for decode in (env.epsilon_for_action, env.step):
                with pytest.raises(ValueError, match="action index"):
                    decode(bad)
                assert snapshot(env) == before


class TestEpsilonMapping:
    def test_endpoints_exact(self):
        base = EpsilonBase(values=np.array([7.0, 0.4, 1e-3]), delta=1e-3)
        assert np.array_equal(epsilon_from_action(0.0, base), np.full(3, 1e-3))
        assert np.array_equal(epsilon_from_action(1.0, base), base.values)

    def test_geometric_midpoint(self):
        base = EpsilonBase(values=np.array([1000.0]), delta=1e-3)
        assert epsilon_from_action(0.5, base)[0] == pytest.approx(1.0, rel=1e-12)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(0)
        base = EpsilonBase(values=rng.uniform(0.01, 100.0, size=5), delta=1e-3)
        levels = np.arange(11) / 10.0
        eps = np.stack([epsilon_from_action(a, base) for a in levels])
        assert np.all(np.diff(eps, axis=0) >= -1e-15 * eps[1:])

    def test_base_floored_at_delta(self):
        base = EpsilonBase(values=np.array([0.0, 1e-6, 5.0]), delta=1e-3)
        assert np.all(base.values >= 1e-3)
        assert base.values[2] == 5.0

    @pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan])
    def test_delta_not_positive_rejected(self, delta):
        # a NaN delta would floor every base value to NaN
        with pytest.raises(ValueError, match="delta must be positive"):
            EpsilonBase(values=np.array([1.0, 2.0]), delta=delta)

    def test_level_out_of_range(self):
        base = EpsilonBase(values=np.array([1.0]))
        with pytest.raises(ValueError):
            epsilon_from_action(1.5, base)

    @pytest.mark.parametrize("level", [np.nan, -np.inf, np.inf, -0.1, [0.5, np.nan], [1.0, 1.5]])
    def test_nan_or_out_of_range_level_rejected(self, level):
        # one level or one per row; NaN must fail the range check too
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            epsilon_from_action(level, EpsilonBase(values=np.array([1.0])))


class TestLinearVariant:
    def test_zero_level_unchanged(self):
        base = EpsilonBase(values=np.array([10.0]))
        eps = np.array([4.0])
        assert np.array_equal(epsilon_linear_step(eps, 0.0, base), eps)

    def test_conservative_shrink(self):
        base = EpsilonBase(values=np.array([10.0]))
        assert epsilon_linear_step(np.array([4.0]), 0.25, base)[0] == pytest.approx(3.0)

    def test_growth_capped_at_base(self):
        base = EpsilonBase(values=np.array([4.5]))
        out = epsilon_linear_step(np.array([4.0]), -0.25, base)
        assert out[0] == pytest.approx(4.5)  # 4 * 1.25 = 5 capped
        wide = EpsilonBase(values=np.array([10.0]))
        assert epsilon_linear_step(np.array([4.0]), -0.25, wide)[0] == pytest.approx(5.0)

    def test_floor_at_zero(self):
        base = EpsilonBase(values=np.array([10.0]))
        assert epsilon_linear_step(np.array([4.0]), 1000.0, base)[0] == 0.0


def reward_of(*progress, variant="full") -> float:
    """env.rewards of one run with these progress values, as a float."""
    return float(rewards(*(np.array([v], dtype=float) for v in progress), variant)[0])


def step_rows(record: np.ndarray) -> list[dict]:
    """A step record's rows as dicts keyed by STEP_COLUMNS, one per run."""
    return [dict(zip(STEP_COLUMNS, row)) for row in record.tolist()]


class TestReward:
    """env.rewards on worked examples; r1, r2 and gamma come from the
    scalar oracle in tests/reference.py, which env.rewards equals bit for
    bit (TestRewardOracle)."""

    def test_violation_progress_only(self):
        # no objective gain; top-5 violation halves
        progress = dict(f_gbest_prev=3.0, f_gbest_now=3.0, f_gbest_0=3.0, f_agentbest=3.0,
                        nu_prev=10.0, nu_now=5.0, nu_0=10.0)
        r1, r2, gamma = reward_components(**progress)
        assert r1 == 0.0 and r2 == pytest.approx(0.5) and gamma == pytest.approx(0.5)
        assert reward_of(*progress.values()) == pytest.approx(0.25, abs=1e-12)

    def test_nothing_improves(self):
        assert reward_of(5.0, 5.0, 5.0, 5.0, 10.0, 10.0, 10.0) == 0.0

    def test_objective_gain_suppressed_without_violation_progress(self):
        r1, r2, gamma = reward_components(10.0, 5.0, 10.0, 5.0, 10.0, 10.0, 10.0)
        assert r1 == pytest.approx(1.0) and gamma == 1.0
        assert reward_of(10.0, 5.0, 10.0, 5.0, 10.0, 10.0, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominator_zeroes_objective_signal(self):
        r1, _, _ = reward_components(5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0)
        assert r1 == 0.0
        assert reward_of(5.0, 4.0, 5.0, 5.0, 1.0, 1.0, 1.0, variant="r1") == 0.0

    def test_zero_initial_violation(self):
        r1, r2, gamma = reward_components(5.0, 4.0, 5.0, 3.0, 0.0, 0.0, 0.0)
        assert r2 == 0.0 and gamma == 0.0
        _, r2b, gammab = reward_components(5.0, 4.0, 5.0, 3.0, 0.0, 0.5, 0.0)
        assert gammab == 1.0  # violations appeared where none existed
        assert reward_of(5.0, 4.0, 5.0, 3.0, 0.0, 0.0, 0.0) == pytest.approx(0.25)
        assert reward_of(5.0, 4.0, 5.0, 3.0, 0.0, 0.5, 0.0) == 0.0

    def test_violation_regression_clamped(self):
        _, r2, gamma = reward_components(5.0, 5.0, 5.0, 5.0, 5.0, 20.0, 10.0)
        assert r2 == 0.0 and gamma == 1.0
        assert reward_of(5.0, 5.0, 5.0, 5.0, 5.0, 20.0, 10.0, variant="r2") == 0.0

    def test_variants(self):
        # r1 = 0, r2 = 0.5, gamma = 0.5
        halved = (3.0, 3.0, 3.0, 3.0, 10.0, 5.0, 10.0)
        assert reward_of(*halved, variant="r1") == 0.0
        assert reward_of(*halved, variant="r2") == 0.5
        assert reward_of(*halved, variant="r1r2") == pytest.approx(0.5)
        # r1 = 0.8, r2 = 0.9: the sum is clamped
        assert reward_of(10.0, 2.0, 10.0, 0.0, 10.0, 1.0, 10.0, variant="r1r2") == 1.0
        with pytest.raises(ValueError):
            reward_of(*halved, variant="r3")
        with pytest.raises(ValueError):
            compute_reward(0.0, 0.0, 0.0, "r3")


# denominators at the r1 guard and one ulp either side of it
GUARD_DENOMS = (float(np.nextafter(1e-12, 0.0)), 1e-12, float(np.nextafter(1e-12, 1.0)))
# finite progress values, as the program's are (evaluate_batch rejects non-finite
# output), except f_agentbest, +inf for the baselines; bounded so that no quotient
# overflows, which Python floats do silently where numpy warns
FINITE = st.floats(-1e6, 1e6)


@st.composite
def progress_rows(draw):
    """One run's (f_gbest_prev, f_gbest_now, f_gbest_0, f_agentbest, nu_prev, nu_now, nu_0)."""
    f_prev, f_now = draw(FINITE), draw(FINITE)
    case = draw(st.sampled_from(["free", "guard", "inf"]))
    if case == "guard":  # f_gbest_0 - f_agentbest is exactly the guard or a neighbour
        f_0, f_agentbest = draw(st.sampled_from(GUARD_DENOMS)), draw(st.sampled_from([0.0, -0.0]))
    else:
        f_0, f_agentbest = draw(FINITE), math.inf if case == "inf" else draw(FINITE)
    nu_0 = draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-6, 1e6),
                          st.floats(-1e6, 0.0)))
    nu = st.one_of(st.sampled_from([0.0, -0.0]), FINITE)
    return f_prev, f_now, f_0, f_agentbest, draw(nu), draw(nu), nu_0


class TestRewardOracle:
    """env.rewards over (R,) arrays is the scalar oracle's reward, run by run,
    bit for bit, and warns of nothing."""

    @staticmethod
    def assert_equals_oracle(rows, variant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            array = rewards(*(np.array(col, dtype=float) for col in zip(*rows)), variant)
        oracle = np.array([compute_reward(*reward_components(*row), variant) for row in rows])
        assert array.tobytes() == oracle.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(progress_rows(), min_size=1, max_size=10),
           variant=st.sampled_from(REWARD_VARIANTS))
    def test_equals_the_scalar_oracle(self, rows, variant):
        self.assert_equals_oracle(rows, variant)

    @pytest.mark.parametrize("variant", REWARD_VARIANTS)
    def test_edges_equal_the_scalar_oracle(self, variant):
        # signed zeros in every progress term, the r1 guard and its neighbours,
        # a zero denominator, f_agentbest = inf, and nu_0 = 0 with nu_now both 0 and > 0
        grid = itertools.product(
            [1.0, -0.0], [0.5, 0.0, -0.0],
            [(d, 0.0) for d in GUARD_DENOMS] + [(d, -0.0) for d in GUARD_DENOMS]
            + [(1.0, math.inf), (2.0, -0.0), (2.0, 2.0)],
            [1.0, 0.0, -0.0], [0.0, -0.0, 0.5, 3.0], [0.0, -0.0, 2.0])
        rows = [(fp, fn, f0, fa, nup, nun, nu0) for fp, fn, (f0, fa), nup, nun, nu0 in grid]
        self.assert_equals_oracle(rows, variant)
        assert any(np.signbit(rewards(*(np.array(c) for c in zip(*rows)), variant)))
        for row in rows[::37]:  # and one run alone
            self.assert_equals_oracle([row], variant)


def make_env(seed=0, dim=10, maxfes=500, f_agentbest=None, problem=None, runs=1, **settings):
    """``runs`` runs, seeded seed, seed + 1, ..., on ``problem`` (rastrigin-ring/1
    at ``dim``) under a config of pop_size 50 and the given ``settings``."""
    problem = problem or synthetic_family("rastrigin-ring", 1, dim)
    cfg = ExperimentConfig(**{"pop_size": 50, **settings})
    rngs = [np.random.default_rng(seed + i) for i in range(runs)]
    return EpsilonControlEnv([problem] * runs, rngs, cfg, maxfes, f_agentbest)


def snapshot(env) -> bytes:
    """Everything a step may change: the population and its archive, the run
    record, the generator states, the current epsilon and the step count."""
    return pickle.dumps((env.pop, env.stats, [g.bit_generator.state for g in env.rngs],
                         env.current_eps, env.step_index, env.state))


class TestEnvSettings:
    def test_constructor_reads_the_config(self):
        cfg = ExperimentConfig(pop_size=20, action_scheme="linear-ca", lpsr=True,
                               delta=0.5, delta_acc=0.25)
        env = EpsilonControlEnv([synthetic_family("rastrigin-ring", 1, 4)],
                                [np.random.default_rng(0)], cfg, 200)
        assert env.action_space.scheme == "linear-ca"
        env.reset()
        assert env.pop.size == 20 and env.stats.lpsr and env.stats.delta_acc == 0.25
        assert env.eps_base.delta == 0.5 and np.all(env.eps_base.values >= 0.5)

    @pytest.mark.parametrize("change", [{"reward_variant": "r3"}, {"action_scheme": "quadratic"},
                                        {"pop_size": 2}, {"delta": 0.0}, {"delta_acc": np.nan}])
    def test_invalid_config_rejected_at_construction(self, change):
        # no env can be handed a config that was not checked
        with pytest.raises(ConfigError):
            ExperimentConfig(**{"pop_size": 20, **change})


class TestEnvEpisode:
    def test_reset_consumes_population_budget(self):
        env = make_env()
        env.reset()
        assert env.stats.budget.fes == 50

    def test_eps_base_from_initial_violations(self):
        env = make_env()
        env.reset()
        p, (x,) = env.problem.n_ineq, env.pop.x
        _, C = env.problem.evaluate_batch(x)  # the initial members' raw constraint values
        g = np.maximum(C[:, :p], 0.0)
        h = np.abs(C[:, p:])
        expect = np.maximum(np.concatenate([g.mean(0), h.mean(0)]), 1e-3)
        assert np.allclose(env.eps_base.values, expect)

    def test_eps_base_mean_of_contributions(self):
        # two members violating one equality by 2 and 4 average to 3
        from rlrelax.lshade import Population

        pop = Population.evaluated(np.array([[np.zeros(2), np.ones(2)]]), np.array([0.0, 1.0]),
                                   np.array([[2.0], [-4.0]]), n_ineq=0)
        base = EpsilonBase.from_population(pop, 1e-3,
                                           [(slice(None), SimpleNamespace(n_ineq=0, n_eq=1))])
        assert base.values[0, 0] == pytest.approx(3.0)

    def test_episode_length_and_budget(self):
        env = make_env(dim=10, maxfes=500)
        env.reset()
        terminal = []
        while not env.terminal:
            record = env.step(5)
            terminal.append(env.terminal)
            assert record.shape == (1, len(STEP_COLUMNS)) and record.dtype == float
            (info,) = step_rows(record)
        assert len(terminal) == 9 and info["step"] == 9
        assert env.stats.budget.fes == info["fes"] == 500
        assert terminal == [False] * 8 + [True]  # terminal only on the last step

    def test_terminal_reads_the_budget_and_is_read_only(self):
        env = make_env(dim=4, maxfes=200)
        assert env.terminal  # before reset()
        with pytest.raises(RuntimeError, match="terminal"):
            env.step_with_epsilon(np.zeros(env.problem.n_constraints), 0.0)
        env.reset()
        assert not env.terminal
        with pytest.raises(AttributeError):
            env.terminal = True
        while not env.terminal:
            env.step(0)
        assert env.stats.budget.exhausted

    def test_terminal_step_rejected(self):
        env = make_env(dim=4, maxfes=200)
        env.reset()
        while not env.terminal:
            env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_step_before_reset_rejected(self, scheme):
        # the terminal check comes before the action is turned into an epsilon
        env = make_env(dim=4, maxfes=200, action_scheme=scheme)
        with pytest.raises(RuntimeError, match="call reset"):
            env.step(0)
        assert env.stats is None and env.pop is None

    def test_deterministic_transition_stream(self):
        rng = np.random.default_rng(99)
        actions = rng.integers(0, 11, size=9)

        def run():
            env = make_env(seed=7)
            out = [env.reset()[0]]
            for a in actions:
                out += [env.step(int(a)), env.state[0]]
            return out

        first, second = run(), run()
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_next_state_records_action_level(self):
        env = make_env()
        env.reset()
        (info,) = step_rows(env.step(3))
        assert env.state[0, 8] == pytest.approx(0.3)
        assert info["level"] == pytest.approx(0.3)

    def test_rewards_bounded(self):
        env = make_env(seed=5)
        env.reset()
        rng = np.random.default_rng(5)
        while not env.terminal:
            (info,) = step_rows(env.step(int(rng.integers(11))))
            assert 0.0 <= info["reward"] <= 1.0

    def test_objective_reward_telescopes_when_agentbest_frozen(self):
        # with a prior all-training best at or below the run minimum, the
        # objective contributions over an episode sum to at most one; r1 is
        # the oracle's on the stats the step read, whose reward the step records
        env = make_env(seed=11, f_agentbest=-1e6)
        env.reset()
        total_r1 = 0.0
        while not env.terminal:
            stats = env.stats
            f_gbest_prev, nu_prev = float(stats.f_gbest[0]), float(stats.nu_top5[0])
            (info,) = step_rows(env.step(8))
            r1, r2, gamma = reward_components(
                f_gbest_prev, float(stats.f_gbest[0]), float(stats.f_pbest_0[0]),
                float(env.f_agentbest[0]), nu_prev, float(stats.nu_top5[0]),
                float(stats.nu_top5_0[0]))
            assert compute_reward(r1, r2, gamma, "full") == info["reward"]
            total_r1 += r1
        assert total_r1 <= 1.0 + 1e-9

    def test_mask_state_zeroes_logged_features(self):
        env = make_env(mask_state=True)
        s, = env.reset()
        assert s[5] == s[6] == s[8] == s[9] == 0.0
        env.step(2)
        s, = env.state
        assert s[5] == s[6] == s[8] == s[9] == 0.0

    def test_step_with_epsilon_matches_scheme_step(self):
        # the step's decoded epsilon and level are the written-out oracle's, under
        # every scheme, for every action, at one run and at three
        for scheme, runs in itertools.product(SCHEMES, (1, 3)):
            env_a, env_b = (make_env(seed=21, runs=runs, pop_size=20, maxfes=400,
                                     action_scheme=scheme) for _ in range(2))
            env_a.reset()
            env_b.reset()
            for action in range(env_a.action_space.n_actions):
                eps, level = action_epsilon(env_b.action_space, [action] * runs,
                                            env_b.current_eps, env_b.eps_base.values,
                                            env_b.eps_base.delta)
                record_a = env_a.step(action)
                record_b = env_b.step_with_epsilon(eps, level)
                assert np.array_equal(env_a.state, env_b.state)
                assert record_a.tobytes() == record_b.tobytes()
                assert record_a[:, STEP_COLUMNS.index("level")].tolist() == level
                assert env_a.current_eps.tobytes() == eps.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_epsilon_for_action_takes_one_action_per_run(self, scheme):
        # one action serves every run; a list must hold one per run, as in step
        one, three = (make_env(runs=runs, pop_size=20, maxfes=200, action_scheme=scheme)
                      for runs in (1, 3))
        for env in (one, three):
            env.reset()
        for got, want in zip(one.epsilon_for_action([2]), one.epsilon_for_action(2)):
            assert got.tobytes() == want.tobytes()
        for actions in ([1, 2], (1, 2, 3)):
            with pytest.raises(ValueError, match="broadcast"):
                one.epsilon_for_action(actions)
        rows, levels = three.epsilon_for_action([1, 2, 3])
        assert rows.shape == three.eps_base.values.shape and levels.shape == (3,)
        for r, action in enumerate([1, 2, 3]):
            eps, level = three.epsilon_for_action(action)
            assert rows[r].tobytes() == eps[r].tobytes()
            assert levels[r].tobytes() == level[r].tobytes()

    def test_bool_entry_rejected_by_the_decoder(self):
        # numpy reads True in a list as 1; the decoder refuses it as step does
        env = make_env(runs=3, pop_size=20, maxfes=200)
        env.reset()
        env.step(1)
        before = snapshot(env)
        for actions in ([1, True, 4], (1, True, 4), [1, np.True_, 4]):
            with pytest.raises(ValueError, match="action index must be an integer"):
                env.epsilon_for_action(actions)
            assert snapshot(env) == before

    def test_decoder_before_reset_and_after_the_end(self):
        env = make_env(pop_size=20, maxfes=100)
        with pytest.raises(RuntimeError, match=re.escape("call reset()")):
            env.epsilon_for_action(1)
        env.reset()
        while not env.terminal:
            env.step(1)
        with pytest.raises(RuntimeError, match=re.escape("call reset()")):
            env.epsilon_for_action(1)

    def test_rejected_epsilon_leaves_episode_unchanged(self):
        env = make_env(seed=3, problem=ProblemRegistry().lookup("cec12", 10), pop_size=20,
                       maxfes=200, action_scheme="linear-aa")
        env.reset()
        env.step(1)
        eps, before = env.current_eps.copy(), snapshot(env)
        bad_eps = ([-1.0, -1.0], [np.nan, 1.0], [1.0, 1.0, 1.0])
        # a wrapped index, one past the last, a float and a bool index, two actions for one run
        bad_actions = (-1, env.action_space.n_actions, 2.0, 7.5, True, [1, 2])
        bad_levels = (np.nan, np.inf, -np.inf, 7.5, -0.1, [0.5, 0.5])
        calls = ([lambda e=e: env.step_with_epsilon(e, 0.5) for e in bad_eps]
                 + [lambda a=a: env.step(a) for a in bad_actions]
                 + [lambda lv=lv: env.step_with_epsilon(eps, lv) for lv in bad_levels])
        for call in calls:
            with pytest.raises(ValueError):
                call()
            assert snapshot(env) == before
        # the next linear step still scales the last valid vector
        assert np.array_equal(env.epsilon_for_action(2)[0], np.clip(
            eps * (1.0 - env.action_space.levels[2]), 0.0, env.eps_base.values))

    def test_epsilon_is_validated_once_per_group_step(self, monkeypatch):
        checks, check = [], cop.epsilon_vector

        def counted(*args):
            checks.append(1)
            return check(*args)

        for module in (cop, env_module, lshade):  # wherever the name may be looked up
            monkeypatch.setattr(module, "epsilon_vector", counted, raising=False)
        env = EpsilonControlEnv([ProblemRegistry().lookup("cec12", 10)] * 2,
                                [np.random.default_rng(4), np.random.default_rng(5)],
                                ExperimentConfig(pop_size=20), 200)
        env.reset()
        for action in range(3):
            env.step(action)
            assert len(checks) == action + 1

    def test_linear_scheme_epsilon_evolves_from_base(self):
        env = make_env(dim=4, maxfes=200, action_scheme="linear-ca")
        env.reset()
        start = env.current_eps.copy()
        assert np.array_equal(start, env.eps_base.values)
        env.step(10)  # level +0.25 -> multiply by 0.75
        assert np.allclose(env.current_eps, start * 0.75)

    def test_infeasible_budget_config_rejected(self):
        with pytest.raises(ValueError, match="two generations"):
            make_env(problem=synthetic_family("sphere-linear", 0, 4), maxfes=80)

    def test_lpsr_episode_runs_to_termination(self):
        env = make_env(seed=8, problem=synthetic_family("rastrigin-ring", 0, 10), maxfes=1000,
                       lpsr=True)
        env.reset()
        while not env.terminal:
            env.step(5)
            assert np.all(np.isfinite(env.state))
        assert env.stats.budget.fes == 1000
        assert env.pop.size < 50  # the population shrank along the way
        assert len(env.pop.archive[0]) <= env.pop.size

    def test_all_feasible_problem_policy_invariant(self):
        # when every candidate satisfies the constraints, the zero and the
        # fully relaxed schedules select identically: nu_eps is 0 either way
        problem = ConstrainedProblem(
            name="always-feasible", dim=4,
            lower=np.full(4, -5.0), upper=np.full(4, 5.0),
            n_ineq=1, n_eq=0,
            evaluator=lambda X: (np.sum(X * X, axis=-1),
                                 (-1.0 - np.sum(X * X, axis=-1))[:, None]),
        )

        def run(eps_fn):
            env = make_env(seed=31, problem=problem, pop_size=20, maxfes=200)
            env.reset()
            # all members satisfy the constraint, so the base is floored
            assert np.array_equal(env.eps_base.values, np.array([[1e-3]]))
            trace = []
            while not env.terminal:
                (info,) = step_rows(env.step_with_epsilon(eps_fn(env), 0.0))
                trace.append(info["sco"])
            # with no violations anywhere the score is the objective best
            assert env.stats.best_sco == env.stats.f_gbest
            return trace

        zero = run(lambda env: np.zeros(1))
        relaxed = run(lambda env: env.eps_base.values)
        assert zero == relaxed


class TestStepRecord:
    """The step's own reward and level wiring, at one run and at a group."""

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("variant", REWARD_VARIANTS)
    @pytest.mark.parametrize("f_agentbest", [None, 3000.0])  # 3000 is crossed mid-episode
    def test_reward_column_is_the_oracle_of_the_stats(self, runs, variant, f_agentbest):
        # each row's reward is the scalar oracle's on the RunStats values read
        # before and after the step, with f_agentbest already updated
        env = make_env(seed=0, runs=runs, f_agentbest=f_agentbest, reward_variant=variant)
        env.reset()
        rng = np.random.default_rng(1)
        rewarded = False
        while not env.terminal:
            stats = env.stats
            f_prev, nu_prev = stats.f_gbest.tolist(), stats.nu_top5.tolist()
            record = env.step(rng.integers(env.action_space.n_actions, size=runs))
            after = zip(f_prev, stats.f_gbest.tolist(), stats.f_pbest_0.tolist(),
                        env.f_agentbest.tolist(), nu_prev, stats.nu_top5.tolist(),
                        stats.nu_top5_0.tolist())
            oracle = np.array([compute_reward(*reward_components(*row), variant)
                               for row in after])
            column = record[:, STEP_COLUMNS.index("reward")]
            assert column.tobytes() == oracle.tobytes()
            rewarded |= bool((column > 0.0).any())
        assert rewarded

    @pytest.mark.parametrize("bad", [[0.5, np.nan, 0.5], [0.5, 1.5, 0.5], [-0.1, 0.5, 0.5]])
    def test_one_bad_level_in_a_group_changes_nothing(self, bad):
        env = make_env(runs=3, pop_size=20, maxfes=200)
        env.reset()
        env.step(1)
        before = snapshot(env)
        with pytest.raises(ValueError, match=re.escape("level must be finite and in [0, 1]")):
            env.step_with_epsilon(env.eps_base.values, bad)
        assert snapshot(env) == before

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("bad", [-1, 11, 2.5, True])
    def test_one_bad_action_raises_and_changes_nothing(self, runs, bad):
        # each action, or one entry of a group's list or tuple; a bool entry is
        # no index, though numpy reads True in a list as 1
        env = make_env(runs=runs, pop_size=20, maxfes=200)
        env.reset()
        env.step(1)
        before = snapshot(env)
        batches = [bad] + ([[1, bad, 4], (1, bad, 4)] if runs == 3 else [])
        for actions in batches:
            got = (list(actions) if isinstance(actions, (list, tuple)) and bad is True
                   else np.full(runs, actions).tolist())
            message = f"action index must be an integer in [0, 11), got {got}"
            with pytest.raises(ValueError, match=re.escape(message)):
                env.step(actions)
            assert snapshot(env) == before

    def test_signed_zero_level_accepted_and_recorded(self):
        env = make_env(runs=3, pop_size=20, maxfes=200)
        env.reset()
        levels = [-0.0, 0.0, 1.0]
        record = env.step_with_epsilon(env.eps_base.values, levels)
        column = record[:, STEP_COLUMNS.index("level")]
        assert column.tobytes() == np.full(3, levels, dtype=float).tobytes()
        assert np.signbit(column).tolist() == [True, False, False]


@pytest.fixture
def observations(monkeypatch):
    """The list of extract_state calls the env makes, one entry per call."""
    calls, real = [], env_module.extract_state

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(env_module, "extract_state", counted)
    return calls


def harness_cfg(**overrides):
    """Two problems at D=4, two paired runs each: 80 evaluations, 3 meta-steps."""
    return ExperimentConfig(**{"problems": ["synthetic/sphere-linear/0",
                                            "synthetic/rastrigin-ring/1"],
                               "dims": [4], "pop_size": 20, "maxfes_per_dim": 20, "runs": 2,
                               "seed": 3, "epochs": 1, "buffer_capacity": 64,
                               "batch_size": 8, **overrides})


class TestLazyObservation:
    """The observation is computed on its first read after reset() or a step
    that went through, and kept until the next one."""

    @pytest.mark.parametrize("kind", ["static-eps", "scheduled-eps", "feasibility-rule"])
    def test_baseline_group_computes_only_the_reset_observation(self, observations, kind):
        cfg = harness_cfg()
        records = harness.run_baseline(cfg, kind)
        assert len(records) == 4 and all(len(r.steps) == 3 for r in records)
        assert len(observations) == 1  # one group: both problems share the box

    @pytest.mark.parametrize("lpsr", [False, True])
    def test_greedy_evaluation_computes_one_observation_per_step(self, observations, lpsr):
        # the reset observation and one read before each later step, for the
        # one group both problems share; the final observation is never computed
        cfg = harness_cfg(maxfes_per_dim=60, lpsr=lpsr)
        harness.evaluate(cfg, harness._init_params(cfg))
        steps = episode_steps(cfg.maxfes(4), cfg.pop_size, lpsr)
        assert len(observations) == steps

    def test_training_observes_no_terminal_state(self, observations):
        # learn reads the state before each step; the state a step ends its episode in
        # is never computed
        result = harness.train(harness_cfg(epochs=2))
        assert len(observations) == sum(row["steps"] for row in result.episodes)

    def test_terminal_transition_holds_its_own_state(self, monkeypatch):
        pushed, push = [], ReplayBuffer.push

        def captured(buffer, tr):
            pushed.append(tr)
            push(buffer, tr)

        monkeypatch.setattr(ReplayBuffer, "push", captured)
        result = harness.train(harness_cfg(epochs=2))
        assert len(pushed) == sum(row["steps"] for row in result.episodes)
        assert sum(tr.terminal for tr in pushed) == len(result.episodes)
        for tr, following in zip(pushed, pushed[1:] + [None]):
            expected = tr.state if tr.terminal else following.state
            assert tr.next_state.tobytes() == expected.tobytes()

    def test_reads_without_a_step_compute_once(self, observations):
        env = make_env()
        env.reset()
        env.step(2)
        assert len(observations) == 1  # the step computed nothing
        first = env.state
        before = first.tobytes()
        assert env.state is first and env.state.tobytes() == before
        assert len(observations) == 2

    def test_rejected_step_keeps_the_observation(self, observations):
        env = make_env(seed=3, problem=ProblemRegistry().lookup("cec12", 10), pop_size=20,
                       maxfes=200)
        env.reset()
        env.step(1)
        kept = env.state
        before, count = kept.tobytes(), len(observations)
        calls = [lambda: env.step(-1), lambda: env.step(2.0),
                 lambda: env.step_with_epsilon(env.current_eps, np.nan),
                 lambda: env.step_with_epsilon(env.current_eps, 1.5),
                 lambda: env.step_with_epsilon([-1.0, -1.0], 0.5),
                 lambda: env.step_with_epsilon([np.nan, 1.0], 0.5)]
        for call in calls:
            with pytest.raises(ValueError):
                call()
            assert env.state is kept and kept.tobytes() == before
            assert len(observations) == count

    def test_reset_clears_the_observation(self, observations):
        env = make_env()
        env.reset()
        env.step(3)
        stepped = env.state
        assert stepped[0, 8] == pytest.approx(0.3)
        state = env.reset()
        assert len(observations) == 3
        assert state is not stepped and env.state is state
        assert state[0, 8] == 1.0  # a fresh run record's previous level

    def test_state_before_reset_rejected(self, observations):
        env = make_env(dim=4, maxfes=200)
        with pytest.raises(RuntimeError, match="call reset"):
            env.state
        assert not observations

    def test_non_finite_observation_fails_at_the_reader(self, monkeypatch):
        # NaN features from the observation after the second generation on:
        # the greedy policy reads that one and fails inside the run; the
        # baselines never read it
        real = env_module.extract_state
        cfg = harness_cfg(problems=["synthetic/rastrigin-ring/1"])

        def nan_late(pop, lower, upper, stats):
            state = real(pop, lower, upper, stats)
            return state * np.nan if stats.budget.fes >= 3 * cfg.pop_size else state

        monkeypatch.setattr(env_module, "extract_state", nan_late)
        with pytest.raises(harness.RunFailedError) as info:
            harness.evaluate(cfg, harness._init_params(cfg))
        assert str(info.value) == ("trained-agent on synthetic/rastrigin-ring/1 (dim 4, run 0) "
                                   "failed: state contains non-finite entries")
        assert isinstance(info.value.__cause__, ValueError)
        for kind in ("static-eps", "scheduled-eps", "feasibility-rule"):
            assert len(harness.run_baseline(cfg, kind)) == cfg.runs


# every registry problem: the two CEC ones exist only from dim 10 on
RUN_PROBLEMS = ["cec12", "cec14"] + [f"synthetic/{kind}/{seed}"
                                     for seed, kind in enumerate(SYNTHETIC_KINDS)]


class TestWholeRunInvariants:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(RUN_PROBLEMS), synthetic_dim=st.integers(2, 6),
           n_pop=st.integers(N_MIN, 16), extra=st.integers(0, 60), lpsr=st.booleans(),
           scheme=st.sampled_from(SCHEMES), variant=st.sampled_from(REWARD_VARIANTS),
           seed=st.integers(0, 2**32 - 1))
    def test_run_keeps_budget_population_and_reward_bounds(self, name, synthetic_dim, n_pop,
                                                          extra, lpsr, scheme, variant, seed):
        # budgets of two generations plus a remainder, so runs end mid-generation
        maxfes = 2 * n_pop + extra
        problem = ProblemRegistry().lookup(name, 10 if name.startswith("cec") else synthetic_dim)
        rng = np.random.default_rng(seed)
        cfg = ExperimentConfig(pop_size=n_pop, action_scheme=scheme, reward_variant=variant,
                               lpsr=lpsr)
        env = EpsilonControlEnv([problem], [rng], cfg, maxfes)
        state, steps = env.reset(), 0
        assert np.all(np.isfinite(state))
        while not env.terminal:
            (info,) = step_rows(env.step(int(rng.integers(env.action_space.n_actions))))
            steps += 1
            pop = env.pop
            assert np.all(np.isfinite(env.state))
            assert np.all(pop.nu_eps <= pop.nu)
            assert 0.0 <= info["reward"] <= 1.0
            assert N_MIN <= pop.size and len(pop.archive[0]) <= pop.size
        assert env.stats.budget.fes == maxfes
        assert steps == episode_steps(maxfes, n_pop, lpsr)


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeStepColumns:
    """The README lists the step record's columns, and records.jsonl's, as
    env.STEP_COLUMNS, in its order."""

    @staticmethod
    def keys_after(marker: str) -> list[str]:
        """The backquoted names from ``marker`` to the end of its clause."""
        text = README.read_text(encoding="utf-8")
        clause = re.search(re.escape(marker) + r"(.*?)[.:]\s", text, re.S).group(1)
        return re.findall(r"`(\w+)`", clause)

    def test_step_record_columns(self):
        assert tuple(self.keys_after("Its columns, `env.STEP_COLUMNS`,")) == STEP_COLUMNS

    def test_records_jsonl_keys(self):
        assert tuple(self.keys_after("then the step record's columns")) == STEP_COLUMNS
