"""The run axis: R paired runs advanced as one stacked population give, run
for run, the bits of R single runs on the same generators.

The design rests on two properties, pinned here: every reduction over a
stacked (R, N, ...) array is bitwise the reduction over each run's slice
(the features, the ranking, the relaxation base), and a group of runs returns the step records
of its runs made one at a time."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rlrelax import harness
from rlrelax.config import ExperimentConfig
from rlrelax.cop import BudgetCounter
from rlrelax.env import SCHEMES, EpsilonBase
from rlrelax.features import extract_state, pairwise_tradeoff, top5_violation_mean
from rlrelax.lshade import N_MIN, Population, RunStats
from rlrelax.problems import SYNTHETIC_KINDS

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

        env, batched = harness._run(cfg, name, dim, keys, f_agentbest, act, labels)
        singles = [harness._run(cfg, name, dim, [key], f_agentbest, act, [label])
                   for key, label in zip(keys, labels)]

        assert batched.shape[1] == runs
        single = np.concatenate([steps for _, steps in singles], axis=1)
        assert batched.shape == single.shape and batched.tobytes() == single.tobytes()
        assert env.f_agentbest.tolist() == [float(e.f_agentbest[0]) for e, _ in singles]
        assert env.state.tobytes() == np.concatenate([e.state for e, _ in singles]).tobytes()


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
        base = EpsilonBase.from_population(pop)
        assert base.values.shape == (pop.f.shape[0], pop.V.shape[-1])
        for r, V in enumerate(pop.V):  # one run's (N, p+q) alone
            own = np.concatenate([V[:, :p].mean(axis=0), V[:, p:].mean(axis=0)])
            assert base.values[r].tobytes() == np.maximum(own, base.delta).tobytes()
