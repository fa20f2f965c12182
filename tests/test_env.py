import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlrelax.cop import ConstrainedProblem
from rlrelax.env import (
    REWARD_VARIANTS,
    SCHEMES,
    ActionSpace,
    EpsilonBase,
    EpsilonControlEnv,
    compute_reward,
    epsilon_from_action,
    epsilon_linear_step,
    reward_components,
)
from rlrelax.lshade import N_MIN, episode_steps
from rlrelax.problems import SYNTHETIC_KINDS, registry_lookup, synthetic_family


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
        for scheme in ("exponential", "linear-aa", "linear-ca"):
            space = ActionSpace.for_scheme(scheme)
            for i in range(space.n_actions):
                assert 0.0 <= space.normalized_level(i) <= 1.0


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

    def test_level_out_of_range(self):
        base = EpsilonBase(values=np.array([1.0]))
        with pytest.raises(ValueError):
            epsilon_from_action(1.5, base)


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


class TestReward:
    def test_violation_progress_only(self):
        # no objective gain; top-5 violation halves
        r1, r2, gamma = reward_components(
            f_gbest_prev=3.0, f_gbest_now=3.0, f_gbest_0=3.0, f_agentbest=3.0,
            nu_prev=10.0, nu_now=5.0, nu_0=10.0,
        )
        assert r1 == 0.0 and r2 == pytest.approx(0.5) and gamma == pytest.approx(0.5)
        assert compute_reward(r1, r2, gamma) == pytest.approx(0.25, abs=1e-12)

    def test_nothing_improves(self):
        r1, r2, gamma = reward_components(5.0, 5.0, 5.0, 5.0, 10.0, 10.0, 10.0)
        assert compute_reward(r1, r2, gamma) == 0.0

    def test_objective_gain_suppressed_without_violation_progress(self):
        r1, r2, gamma = reward_components(10.0, 5.0, 10.0, 5.0, 10.0, 10.0, 10.0)
        assert r1 == pytest.approx(1.0) and gamma == 1.0
        assert compute_reward(r1, r2, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominator_zeroes_objective_signal(self):
        r1, _, _ = reward_components(5.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0)
        assert r1 == 0.0

    def test_zero_initial_violation(self):
        r1, r2, gamma = reward_components(5.0, 4.0, 5.0, 3.0, 0.0, 0.0, 0.0)
        assert r2 == 0.0 and gamma == 0.0
        _, r2b, gammab = reward_components(5.0, 4.0, 5.0, 3.0, 0.0, 0.5, 0.0)
        assert gammab == 1.0  # violations appeared where none existed

    def test_violation_regression_clamped(self):
        _, r2, gamma = reward_components(5.0, 5.0, 5.0, 5.0, 5.0, 20.0, 10.0)
        assert r2 == 0.0 and gamma == 1.0

    def test_variants(self):
        assert compute_reward(0.0, 0.5, 0.5, "r1") == 0.0
        assert compute_reward(0.0, 0.5, 0.5, "r2") == 0.5
        assert compute_reward(0.0, 0.5, 0.5, "r1r2") == pytest.approx(0.5)
        assert compute_reward(0.8, 0.9, 0.0, "r1r2") == 1.0  # clamped sum
        with pytest.raises(ValueError):
            compute_reward(0.0, 0.0, 0.0, "r3")


def make_env(seed=0, dim=10, maxfes=500, **kwargs):
    problem = synthetic_family("rastrigin-ring", 1, dim)
    return EpsilonControlEnv(problem, np.random.default_rng(seed),
                             n_pop=50, maxfes=maxfes, **kwargs)


class TestEnvEpisode:
    def test_reset_consumes_population_budget(self):
        env = make_env()
        env.reset()
        assert env.stats.budget.fes == 50

    def test_eps_base_from_initial_violations(self):
        env = make_env()
        env.reset()
        p = env.problem.n_ineq
        g = np.maximum(env.pop.C[:, :p], 0.0)
        h = np.abs(env.pop.C[:, p:])
        expect = np.maximum(np.concatenate([g.mean(0), h.mean(0)]), 1e-3)
        assert np.allclose(env.eps_base.values, expect)

    def test_eps_base_mean_of_contributions(self):
        # two members violating one equality by 2 and 4 average to 3
        from rlrelax.lshade import Population

        pop = Population.evaluated(np.array([np.zeros(2), np.ones(2)]), np.array([0.0, 1.0]),
                                   np.array([[2.0], [-4.0]]), n_ineq=0)
        base = EpsilonBase.from_population(pop)
        assert base.values[0] == pytest.approx(3.0)

    def test_episode_length_and_budget(self):
        env = make_env(dim=10, maxfes=500)
        env.reset()
        transitions = []
        while not env.terminal:
            tr, _ = env.step(5)
            transitions.append(tr)
        assert len(transitions) == 9
        assert env.stats.budget.fes == 500
        assert sum(tr.terminal for tr in transitions) == 1
        assert transitions[-1].terminal

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

    def test_deterministic_transition_stream(self):
        rng = np.random.default_rng(99)
        actions = rng.integers(0, 11, size=9)

        def run():
            env = make_env(seed=7)
            env.reset()
            out = []
            for a in actions:
                tr, _ = env.step(int(a))
                out.append(tr)
            return out

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a.state, b.state)
            assert a.reward == b.reward
            assert np.array_equal(a.next_state, b.next_state)

    def test_next_state_records_action_level(self):
        env = make_env()
        env.reset()
        tr, info = env.step(3)
        assert tr.next_state[8] == pytest.approx(0.3)
        assert info["level"] == pytest.approx(0.3)

    def test_rewards_bounded(self):
        env = make_env(seed=5)
        env.reset()
        rng = np.random.default_rng(5)
        while not env.terminal:
            tr, _ = env.step(int(rng.integers(11)))
            assert 0.0 <= tr.reward <= 1.0

    def test_objective_reward_telescopes_when_agentbest_frozen(self):
        # with a prior all-training best at or below the run minimum, the
        # objective contributions over an episode sum to at most one
        env = make_env(seed=11, f_agentbest=-1e6)
        env.reset()
        total_r1 = 0.0
        while not env.terminal:
            _, info = env.step(8)
            total_r1 += info["r1"]
        assert total_r1 <= 1.0 + 1e-9

    def test_mask_state_zeroes_logged_features(self):
        env = make_env(mask_state=True)
        s = env.reset()
        assert s[5] == s[6] == s[8] == s[9] == 0.0
        tr, _ = env.step(2)
        assert tr.next_state[5] == tr.next_state[6] == tr.next_state[8] == tr.next_state[9] == 0.0

    def test_step_with_epsilon_matches_scheme_step(self):
        env_a = make_env(seed=21)
        env_b = make_env(seed=21)
        env_a.reset()
        env_b.reset()
        tr_a, _ = env_a.step(4)
        eps = env_b.epsilon_for_action(4)
        tr_b, _ = env_b.step_with_epsilon(eps, env_b.action_space.normalized_level(4), action=4)
        assert np.array_equal(tr_a.next_state, tr_b.next_state)
        assert tr_a.reward == tr_b.reward

    def test_rejected_epsilon_leaves_episode_unchanged(self):
        problem = registry_lookup("cec12", 10)
        env = EpsilonControlEnv(problem, np.random.default_rng(3), n_pop=20, maxfes=200,
                                action_space=ActionSpace.for_scheme("linear-aa"))
        env.reset()
        env.step(1)
        before = (env.current_eps.copy(), env.pop.x.copy(), env.step_index, env.stats.budget.fes)
        for bad in ([-1.0, -1.0], [np.nan, 1.0], [1.0, 1.0, 1.0]):
            with pytest.raises(ValueError):
                env.step_with_epsilon(bad, 0.5)
        after = (env.current_eps, env.pop.x, env.step_index, env.stats.budget.fes)
        assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
        # the next linear step still scales the last valid vector
        assert np.array_equal(env.epsilon_for_action(2), np.clip(
            before[0] * (1.0 - env.action_space.level(2)), 0.0, env.eps_base.values))

    def test_linear_scheme_epsilon_evolves_from_base(self):
        problem = synthetic_family("rastrigin-ring", 1, 4)
        env = EpsilonControlEnv(problem, np.random.default_rng(0), n_pop=50,
                                maxfes=200, action_space=ActionSpace.for_scheme("linear-ca"))
        env.reset()
        start = env.current_eps.copy()
        assert np.array_equal(start, env.eps_base.values)
        env.step(10)  # level +0.25 -> multiply by 0.75
        assert np.allclose(env.current_eps, start * 0.75)

    def test_infeasible_budget_config_rejected(self):
        problem = synthetic_family("sphere-linear", 0, 4)
        with pytest.raises(ValueError):
            EpsilonControlEnv(problem, np.random.default_rng(0), n_pop=50, maxfes=80)

    def test_lpsr_episode_runs_to_termination(self):
        problem = synthetic_family("rastrigin-ring", 0, 10)
        env = EpsilonControlEnv(problem, np.random.default_rng(8), n_pop=50,
                                maxfes=1000, lpsr=True)
        env.reset()
        while not env.terminal:
            tr, _ = env.step(5)
            assert np.all(np.isfinite(tr.next_state))
        assert env.stats.budget.fes == 1000
        assert env.pop.size < 50  # the population shrank along the way
        assert len(env.pop.archive) <= env.pop.size

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
            env = EpsilonControlEnv(problem, np.random.default_rng(31),
                                    n_pop=20, maxfes=200)
            env.reset()
            # all members satisfy the constraint, so the base is floored
            assert np.array_equal(env.eps_base.values, np.array([1e-3]))
            trace = []
            while not env.terminal:
                _, info = env.step_with_epsilon(eps_fn(env), 0.0)
                trace.append(info["sco"])
            # with no violations anywhere the score is the objective best
            assert env.stats.best_sco == env.stats.f_gbest
            return trace

        zero = run(lambda env: np.zeros(1))
        relaxed = run(lambda env: env.eps_base.values)
        assert zero == relaxed


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
        problem = registry_lookup(name, 10 if name.startswith("cec") else synthetic_dim)
        rng = np.random.default_rng(seed)
        space = ActionSpace.for_scheme(scheme)
        env = EpsilonControlEnv(problem, rng, n_pop=n_pop, maxfes=maxfes,
                                action_space=space, reward_variant=variant, lpsr=lpsr)
        state, steps = env.reset(), 0
        assert np.all(np.isfinite(state))
        while not env.terminal:
            tr, _ = env.step(int(rng.integers(space.n_actions)))
            steps += 1
            pop = env.pop
            assert np.all(np.isfinite(tr.next_state))
            assert np.all(pop.nu_eps <= pop.nu)
            assert 0.0 <= tr.reward <= 1.0
            assert N_MIN <= pop.size and len(pop.archive) <= pop.size
        assert env.stats.budget.fes == maxfes
        assert steps == episode_steps(maxfes, n_pop, lpsr)
