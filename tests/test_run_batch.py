"""The run axis: R paired runs advanced as one stacked population give, run
for run, the bits of R single runs on the same generators.

The design rests on two properties, pinned here: every reduction over a
stacked (R, N, ...) array is bitwise the reduction over each run's slice
(the features, the ranking, the relaxation base), and a group of runs returns the step records
of its runs made one at a time, also when the group stacks problems of several
constraint layouts, each padded to the widest."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlrelax import harness
from rlrelax.config import ExperimentConfig
from rlrelax.cop import BudgetCounter, ConstrainedProblem, ProblemDefinitionError
from rlrelax.env import SCHEMES, STEP_COLUMNS, EpsilonBase, EpsilonControlEnv, _stacked
from rlrelax.features import extract_state, pairwise_tradeoff, top5_violation_mean
from rlrelax.lshade import N_MIN, Population, RunStats
from rlrelax.problems import SYNTHETIC_KINDS, ProblemRegistry, synthetic_family

RUN_PROBLEMS = ["cec12", "cec14"] + [f"synthetic/{kind}/{seed}"
                                     for seed, kind in enumerate(SYNTHETIC_KINDS)]


def policy_for(kind, cfg):
    if kind == "greedy":  # the untrained network: a fixed, scheme-shaped Q-function
        return harness._greedy_policy(harness._init_params(cfg))
    return harness._baseline_policy(cfg, kind)[1]


class TestBatchEqualsIndependentRuns:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(RUN_PROBLEMS), synthetic_dim=st.integers(2, 5),
           n_pop=st.integers(N_MIN, 12), per_dim=st.integers(2, 24), lpsr=st.booleans(),
           mask_state=st.booleans(), scheme=st.sampled_from(SCHEMES),
           runs=st.integers(1, 4),
           policy=st.sampled_from(["greedy", "scheduled-eps", "static-eps", "feasibility-rule"]),
           static_level=st.sampled_from([0.0, 0.3, 1.0]),
           f_agentbest=st.sampled_from([None, -1e6, 50.0]), seed=st.integers(0, 2**32 - 1))
    def test_step_records_equal(self, name, synthetic_dim, n_pop, per_dim, lpsr, mask_state,
                                scheme, runs, policy, static_level, f_agentbest, seed):
        dim = 10 if name.startswith("cec") else synthetic_dim
        # budgets from two generations up, most of them ending mid-generation
        assume(per_dim * dim >= 2 * n_pop)
        cfg = ExperimentConfig(problems=[name], dims=[dim], pop_size=n_pop,
                               maxfes_per_dim=per_dim, runs=runs, lpsr=lpsr,
                               mask_state=mask_state, action_scheme=scheme,
                               static_level=static_level, seed=seed % 1000)
        act = policy_for(policy, cfg)
        keys = [(seed, run) for run in range(runs)]  # _rng(seed, run) is default_rng([seed, run])
        labels = [f"run {run}" for run in range(runs)]

        problem = cfg.registry.lookup(name, dim)
        env, batched = harness._run(cfg, [problem] * runs, keys, f_agentbest, act, labels)
        singles = [harness._run(cfg, [problem], [key], f_agentbest, act, [label])
                   for key, label in zip(keys, labels)]

        assert batched.shape[1] == runs
        single = np.concatenate([steps for _, steps in singles], axis=1)
        assert batched.shape == single.shape and batched.tobytes() == single.tobytes()
        assert env.f_agentbest.tolist() == [float(e.f_agentbest[0]) for e, _ in singles]
        assert env.state.tobytes() == np.concatenate([e.state for e, _ in singles]).tobytes()


# the registry's problems by constraint layout (n_ineq, n_eq)
LAYOUT_FAMILIES = [
    ["cec12", "cec14", "synthetic/rastrigin-ring/2", "synthetic/griewank-plane/4"],  # (1, 1)
    ["synthetic/sphere-linear/0", "synthetic/ackley-ellipsoid/3"],  # (1, 0)
    ["synthetic/rosenbrock-cubic/1", "synthetic/schwefel-band/5"],  # (2, 0)
]


class TestStackedProblemsEqualIndependentRuns:
    # groups drawn across the three layouts: a group of one layout stacks without
    # padding, a group of several pads each run's terms to the widest layout; at 50
    # members the means over them sum pairwise, so a base over a padded block would differ
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), synthetic_dim=st.integers(2, 5),
           n_pop=st.one_of(st.integers(N_MIN, 10), st.just(50)),
           per_dim=st.integers(2, 16), lpsr=st.booleans(), mask_state=st.booleans(),
           scheme=st.sampled_from(SCHEMES), runs=st.integers(1, 3),
           policy=st.sampled_from(["greedy", "scheduled-eps", "static-eps", "feasibility-rule"]),
           f_agentbest=st.sampled_from([None, 50.0]), seed=st.integers(0, 2**32 - 1))
    def test_step_records_equal(self, data, synthetic_dim, n_pop, per_dim, lpsr, mask_state,
                                scheme, runs, policy, f_agentbest, seed):
        names = data.draw(st.lists(st.sampled_from(sum(LAYOUT_FAMILIES, [])), min_size=2,
                                   max_size=4, unique=True))
        # 50 members need dim 10 for two generations
        dim = 10 if n_pop == 50 or any(name.startswith("cec") for name in names) else synthetic_dim
        assume(per_dim * dim >= 2 * n_pop)
        cfg = ExperimentConfig(problems=names, dims=[dim], pop_size=n_pop, maxfes_per_dim=per_dim,
                               runs=runs, lpsr=lpsr, mask_state=mask_state, action_scheme=scheme,
                               static_level=0.3, seed=seed % 1000)
        act = policy_for(policy, cfg)
        # one lookup per problem: a problem's runs are one block of the stacked evaluator
        per_run = [problem for problem in (cfg.registry.lookup(name, dim) for name in names)
                   for _ in range(runs)]
        keys = [(seed, k) for k in range(len(per_run))]
        labels = [f"run {k}" for k in range(len(per_run))]

        env, stacked = harness._run(cfg, per_run, keys, f_agentbest, act, labels)
        singles = [harness._run(cfg, [problem], [key], f_agentbest, act, [label])
                   for problem, key, label in zip(per_run, keys, labels)]

        single = np.concatenate([steps for _, steps in singles], axis=1)
        assert stacked.shape == single.shape and stacked.tobytes() == single.tobytes()
        assert env.f_agentbest.tolist() == [float(e.f_agentbest[0]) for e, _ in singles]
        assert env.state.tobytes() == np.concatenate([e.state for e, _ in singles]).tobytes()


def layout(problem):
    return problem.n_ineq, problem.n_eq


def own_columns(problem, stacked):
    """The columns of problem's p inequality and q equality terms in stacked's layout."""
    P = stacked.n_ineq
    return list(range(problem.n_ineq)) + list(range(P, P + problem.n_eq))


def reset_env(problems, seeds, pop_size=50):
    env = EpsilonControlEnv(problems, [np.random.default_rng(s) for s in seeds],
                            ExperimentConfig(pop_size=pop_size), 10 * pop_size)
    env.reset()
    return env


class TestPaddedLayouts:
    # (1, 1) and (1, 0), each with inequality terms that are mostly non-zero
    @pytest.mark.parametrize("name", ["cec14", "synthetic/sphere-linear/9"])
    @pytest.mark.parametrize("seed", range(4))
    def test_eps_base_keeps_each_runs_own_bits(self, name, seed):
        # the (2, 0) run widens the inequality block to 2 columns; a mean over
        # the widened block sums member by member, not pairwise, and moves the last bit
        registry = ProblemRegistry()
        problem = registry.lookup(name, 10)
        wide = registry.lookup("synthetic/rosenbrock-cubic/5", 10)
        for problems, r in (([problem, wide], 0), ([wide, problem, problem], 1)):
            env = reset_env(problems, [seed + k for k in range(len(problems))])
            alone = reset_env([problem], [seed + r])
            own = env.eps_base.values[r, own_columns(problem, env.problem)]
            assert own.tobytes() == alone.eps_base.values[0].tobytes()
            padding = np.delete(env.eps_base.values[r], own_columns(problem, env.problem))
            assert (padding == env.eps_base.delta).all()

    def test_run_without_constraints_records_zero_eps_statistics(self):
        box = np.full(3, 100.0)
        free = ConstrainedProblem(name="free", dim=3, lower=-box, upper=box, n_ineq=0, n_eq=0,
                                  evaluator=lambda X: ((X * X).sum(-1), np.empty((len(X), 0))))
        constrained = synthetic_family("rastrigin-ring", 1, 3)
        cfg = ExperimentConfig(pop_size=6, maxfes_per_dim=10)
        act = policy_for("scheduled-eps", cfg)
        env, stacked = harness._run(cfg, [free, constrained, free], [(0,), (1,), (2,)], None,
                                    act, ["a", "b", "c"])
        alone = [harness._run(cfg, [problem], [key], None, act, ["x"])[1]
                 for problem, key in ((free, (0,)), (constrained, (1,)), (free, (2,)))]
        assert stacked.tobytes() == np.concatenate(alone, axis=1).tobytes()
        stats = [STEP_COLUMNS.index(c) for c in ("eps_min", "eps_mean", "eps_max")]
        assert not stacked[:, [0, 2]][..., stats].any()
        assert stacked[:, 1][..., stats].all()

    def test_member_of_the_wrong_width_raises_naming_it(self):
        registry = ProblemRegistry()
        good = registry.lookup("synthetic/sphere-linear/0", 4)
        real = registry.lookup("synthetic/rastrigin-ring/1", 4)

        def one_column_short(X):
            f, C = real.evaluator(X)
            return f, C[:, :1]

        bad = dataclasses.replace(real, name="short", evaluator=one_column_short)
        X = np.random.default_rng(0).uniform(-100.0, 100.0, size=(4, 4))
        with pytest.raises(ProblemDefinitionError, match=r"^short: evaluator returned f \(2,\), "
                                                         r"C \(2, 1\) for 2 rows"):
            _stacked([good, bad])[0].evaluate_batch(X)

    def test_each_generation_is_checked_once(self, monkeypatch):
        # the stacked evaluate_batch alone checks a generation's values; a member's
        # evaluator runs once per block of its runs, with only its shape checked
        registry, calls = ProblemRegistry(), {}

        def counted(name):
            real = registry.lookup(name, 4)

            def evaluator(X):
                calls[name] = calls.get(name, 0) + 1
                return real.evaluator(X)

            return dataclasses.replace(real, evaluator=evaluator)

        a, b, c = map(counted, ("synthetic/rastrigin-ring/1", "synthetic/rosenbrock-cubic/5",
                                "synthetic/sphere-linear/9"))
        checked, evaluate_batch = [], ConstrainedProblem.evaluate_batch

        def counting(problem, X):
            checked.append(problem.name)
            return evaluate_batch(problem, X)

        monkeypatch.setattr(ConstrainedProblem, "evaluate_batch", counting)
        cfg = ExperimentConfig(pop_size=6, maxfes_per_dim=12, lpsr=True)
        env, steps = harness._run(cfg, [a, a, b, c, a], [(k,) for k in range(5)], None,
                                  policy_for("scheduled-eps", cfg), list("abcde"))
        evaluations = len(steps) + 1  # the initial population, then one per generation
        assert checked == [env.problem.name] * evaluations
        assert calls == {a.name: 2 * evaluations, b.name: evaluations, c.name: evaluations}
        assert [runs.stop for runs, _ in env.blocks] == [2, 3, 4, 5]

    def test_each_member_fills_its_own_columns(self):
        registry = ProblemRegistry()
        members = [registry.lookup(name, 4) for name in ("synthetic/rastrigin-ring/1",
                                                         "synthetic/rosenbrock-cubic/5",
                                                         "synthetic/sphere-linear/9")]
        stacked, blocks = _stacked(members)
        assert blocks == [(slice(k, k + 1), member) for k, member in enumerate(members)]
        assert layout(stacked) == (2, 1) and stacked.name == " + ".join(m.name for m in members)
        X = np.random.default_rng(0).uniform(-100.0, 100.0, size=(6, 4))
        f, C = stacked.evaluate_batch(X)
        for k, member in enumerate(members):
            f_k, C_k = member.evaluate_batch(X[2 * k:2 * k + 2])
            own = own_columns(member, stacked)
            assert f[2 * k:2 * k + 2].tobytes() == f_k.tobytes()
            assert C[2 * k:2 * k + 2, own].tobytes() == C_k.tobytes()
            assert (np.delete(C[2 * k:2 * k + 2], own, axis=1) == 0.0).all()


# two layouts, interleaved: (1, 0), (1, 1), (1, 0), (1, 1)
INTERLEAVED = ["synthetic/sphere-linear/0", "synthetic/rastrigin-ring/1",
               "synthetic/ackley-ellipsoid/2", "synthetic/griewank-plane/3"]


class TestGroupedEvaluation:
    @pytest.mark.parametrize("method", ["greedy", "scheduled-eps", "feasibility-rule"])
    def test_records_keep_their_order_and_their_bytes(self, method):
        cfg = ExperimentConfig(problems=INTERLEAVED, dims=[3, 4], pop_size=6, maxfes_per_dim=12,
                               runs=2, seed=7)

        def records(cfg):
            if method == "greedy":
                return harness.evaluate(cfg, harness._init_params(cfg))
            return harness.run_baseline(cfg, method)

        grouped = records(cfg)
        assert [(r.dim, r.problem, r.run) for r in grouped] == [
            (dim, name, run) for dim in (3, 4) for name in INTERLEAVED for run in (0, 1)]
        # each problem evaluated alone: the same seed keys, the same bytes
        assert grouped == [r for dim in (3, 4) for name in INTERLEAVED
                           for r in records(ExperimentConfig(problems=[name], dims=[dim],
                                                             pop_size=6, maxfes_per_dim=12,
                                                             runs=2, seed=7))]

    def test_a_different_box_is_its_own_group(self, monkeypatch):
        # rastrigin-ring/1 and griewank-plane/3 share a layout; a narrower box splits them
        names = INTERLEAVED[1::2]
        lookup = ProblemRegistry.lookup

        def narrowed(registry, name, dim):
            problem = lookup(registry, name, dim)
            if name != names[1]:
                return problem
            return dataclasses.replace(problem, lower=problem.lower / 2, upper=problem.upper / 2)

        monkeypatch.setattr(ProblemRegistry, "lookup", narrowed)
        run, sizes = harness._run, []

        def counted(cfg, problems, *args):
            sizes.append(len(problems))
            return run(cfg, problems, *args)

        monkeypatch.setattr(harness, "_run", counted)
        common = dict(dims=[4], pop_size=6, maxfes_per_dim=12, runs=2, seed=7)
        grouped = harness.run_baseline(ExperimentConfig(problems=names, **common), "scheduled-eps")
        assert sizes == [2, 2]
        assert grouped == [r for name in names for r in harness.run_baseline(
            ExperimentConfig(problems=[name], **common), "scheduled-eps")]

    def test_a_block_of_eight_terms_keeps_its_own_layout(self, monkeypatch):
        # numpy sums 8 or more terms with 8 partial sums, so a narrower block padded
        # that wide would add in another order: rastrigin-ring/1, given 8 inequality
        # terms, leaves the two (1, 0) problems that share its box
        names = INTERLEAVED[:3]
        lookup = ProblemRegistry.lookup

        def widened(registry, name, dim):
            problem = lookup(registry, name, dim)
            if name != names[1]:
                return problem

            def evaluator(X, real=problem.evaluator):
                f, C = real(X)
                return f, np.concatenate([C[:, :1] * np.arange(1.0, 9.0), C[:, 1:]], axis=1)

            return dataclasses.replace(problem, n_ineq=8, evaluator=evaluator)

        monkeypatch.setattr(ProblemRegistry, "lookup", widened)
        run, sizes = harness._run, []

        def counted(cfg, problems, *args):
            sizes.append(len(problems))
            return run(cfg, problems, *args)

        monkeypatch.setattr(harness, "_run", counted)
        common = dict(dims=[4], pop_size=6, maxfes_per_dim=12, runs=2, seed=7)
        grouped = harness.run_baseline(ExperimentConfig(problems=names, **common), "scheduled-eps")
        assert sizes == [4, 2]
        assert grouped == [r for name in names for r in harness.run_baseline(
            ExperimentConfig(problems=[name], **common), "scheduled-eps")]

    def test_one_problem_is_its_own_stack(self):
        problem = ExperimentConfig(problems=INTERLEAVED).registry.lookup(INTERLEAVED[1], 4)
        stacked, blocks = _stacked([problem] * 3)
        assert stacked is problem and blocks == [(slice(0, 3), problem)]

    def test_stacked_evaluator_splits_rows_by_run(self):
        registry = ExperimentConfig(problems=INTERLEAVED).registry
        a, b = (registry.lookup(name, 4) for name in INTERLEAVED[1::2])
        stacked, blocks = _stacked([a, a, b])
        assert blocks == [(slice(0, 2), a), (slice(2, 3), b)]
        assert stacked.name == f"{a.name} + {b.name}"
        X = np.random.default_rng(0).uniform(-100.0, 100.0, size=(6, 4))
        f, C = stacked.evaluate_batch(X)
        (f_a, C_a), (f_b, C_b) = a.evaluate_batch(X[:4]), b.evaluate_batch(X[4:])
        assert f.tobytes() == np.concatenate([f_a, f_b]).tobytes()
        assert C.tobytes() == np.concatenate([C_a, C_b]).tobytes()
        for rows in (1, 4, 5):
            with pytest.raises(ProblemDefinitionError,
                               match=f"{rows} rows do not split into 3 equal per-run blocks"):
                stacked.evaluate_batch(X[:rows])


# objective and constraint values from a small set, so ties, exact zeros and
# a zero objective range are common
_VALUES = st.sampled_from([0.0, 1.0, -2.5, 3.0])
KINDS = ("random", "ties", "feasible", "infeasible", "flat")


@st.composite
def stacked_populations(draw):
    """(pop, stats, lower, upper): R runs of N members, each run of its own kind."""
    runs, n, d = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    p, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-5.0, 5.0, size=(runs, n, d))
    f = rng.normal(size=(runs, n)) * 10.0
    C = rng.normal(size=(runs, n, p + q))
    for r in range(runs):
        kind = draw(st.sampled_from(KINDS))
        if kind == "ties":
            f[r] = [draw(_VALUES) for _ in range(n)]
            C[r] = np.round(C[r])
        elif kind == "feasible":
            C[r, :, :p] = -np.abs(C[r, :, :p])
            C[r, :, p:] = 0.0
        elif kind == "infeasible" and p + q:
            C[r] = np.abs(C[r]) + 1.0
        elif kind == "flat":
            f[r] = draw(_VALUES)
    pop = Population.evaluated(x, f, C, p, eps=np.full(p + q, 0.5))
    budget = BudgetCounter(100)
    budget.fes = draw(st.integers(0, 100))
    nu_top5 = top5_violation_mean(pop.nu)
    flat = draw(st.booleans())  # f_max == f_gbest when the run is flat
    f_min, f_max = f.min(axis=1), np.where(flat, f.max(axis=1), f.max(axis=1) + 1.0)
    stats = RunStats(budget, n, f_gbest=f_min, f_max=np.maximum(f_max, f_min),
                     f_pbest_0=np.array([draw(st.sampled_from([0.0, 1e-13, 2.0, -7.0]))
                                         for _ in range(runs)]),
                     nu_top5=nu_top5, nu_top5_0=nu_top5 * rng.choice([0.0, 1.0, 2.0], runs),
                     prev_action=rng.uniform(size=runs))
    return pop, stats, np.full(d, -5.0), np.full(d, 5.0)


def run_slice(pop, stats, r):
    """Run r of a stacked population and its record, as a one-run stack."""
    one = Population(**{name: getattr(pop, name)[r:r + 1] for name in
                        ("x", "f", "V", "nu", "nu_eps", "feasible")}, n_ineq=pop.n_ineq)
    fields = ("f_gbest", "f_max", "best_sco", "f_pbest_0", "nu_top5_0", "nu_top5", "prev_action")
    return one, RunStats(stats.budget, stats.n_init,
                         **{name: np.asarray(getattr(stats, name))[r:r + 1] for name in fields
                            if np.ndim(getattr(stats, name))})


class TestStackedReductions:
    @settings(max_examples=300, deadline=None)
    @given(stacked_populations())
    def test_features_equal_per_run_slices(self, case):
        pop, stats, lower, upper = case
        stacked = extract_state(pop, lower, upper, stats)
        assert stacked.shape == (pop.f.shape[0], 10)
        for r in range(pop.f.shape[0]):
            one, one_stats = run_slice(pop, stats, r)
            assert stacked[r].tobytes() == extract_state(one, lower, upper, one_stats)[0].tobytes()
            coords = (pop.x[r] - lower) / (upper - lower)  # s1 and s3 are numpy's own std and mean
            assert stacked[r, [0, 2]].tobytes() == np.array([np.std(coords),
                                                             np.mean(coords)]).tobytes()
            assert (top5_violation_mean(pop.nu)[r].tobytes()
                    == top5_violation_mean(pop.nu[r]).tobytes())
            assert (pairwise_tradeoff(pop.f, pop.nu)[r].tobytes()
                    == pairwise_tradeoff(pop.f[r], pop.nu[r]).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(stacked_populations())
    def test_ranking_is_each_runs_lexsort(self, case):
        pop = case[0]
        ranked = pop.ranking()
        for r in range(pop.f.shape[0]):
            assert ranked[r].tolist() == np.lexsort((pop.f[r], pop.nu_eps[r])).tolist()

    @settings(max_examples=300, deadline=None)
    @given(stacked_populations())
    def test_eps_base_is_each_runs_own(self, case):
        pop, p = case[0], case[0].n_ineq
        whole = [(slice(None), SimpleNamespace(n_ineq=p, n_eq=pop.V.shape[-1] - p))]
        base = EpsilonBase.from_population(pop, 1e-3, whole)
        assert base.values.shape == (pop.f.shape[0], pop.V.shape[-1])
        for r, V in enumerate(pop.V):  # one run's (N, p+q) alone
            own = np.concatenate([V[:, :p].mean(axis=0), V[:, p:].mean(axis=0)])
            assert base.values[r].tobytes() == np.maximum(own, base.delta).tobytes()
