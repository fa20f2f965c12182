"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and enforces its runtime budget.  The heavyweight train-and-compare
experiment is shared by criteria 7 and 8 through a module-scoped fixture.
"""

import dataclasses
import time

import numpy as np
import pytest

from rlrelax.agent import (
    Transition,
    init_params,
    loss_and_grad,
    loss_with_fixed_targets,
    selu,
    sgd_step,
    sigmoid,
    td_target,
)
from rlrelax.cli import EXIT_OK, main
from rlrelax.config import ExperimentConfig
from rlrelax.cop import BudgetCounter, eps_compare, relaxed_violations, row_accounting
from rlrelax.env import STEP_COLUMNS, EpsilonBase, EpsilonControlEnv, epsilon_from_action, rewards
from rlrelax.harness import aggregate_table, evaluate, run_baseline, train
from rlrelax.lshade import RunStats, generation_step, init_population
from rlrelax.problems import SYNTHETIC_KINDS, synthetic_family
from rlrelax.cop import ConstrainedProblem


def report(num: int, ok: bool, desc: str, elapsed: float) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s) {desc}")


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_epsilon_mapping_exactness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    levels = np.arange(11) / 10.0
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        delta = 10.0 ** rng.uniform(-6, -1)
        ratio = 10.0 ** rng.uniform(0, 6, size=m)
        base = EpsilonBase(values=delta * ratio, delta=delta)
        ok &= bool(np.all(epsilon_from_action(0.0, base) == delta))
        ok &= bool(np.all(epsilon_from_action(1.0, base) == base.values))
        eps = np.stack([epsilon_from_action(a, base) for a in levels])
        diffs = np.diff(eps, axis=0)
        ok &= bool(np.all(diffs >= -1e-15 * eps[1:]))  # monotone up to 1 ulp
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, "relaxation endpoints exact, monotone in level", elapsed)
    assert ok
    assert elapsed < 1.0


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_comparison_rule_oracle():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n = 100_000

    def direct_rule(f_a, nu_a, f_b, nu_b):
        # the published rule restated: violations first, objectives on ties
        if nu_a < nu_b:
            return -1
        if nu_a > nu_b:
            return 1
        if f_a < f_b:
            return -1
        if f_a > f_b:
            return 1
        return 0

    # one inequality and one equality per side, drawn in bulk
    f_a, f_b = rng.normal(size=n), rng.normal(size=n)
    g_a, g_b = rng.normal(size=n) * 3, rng.normal(size=n) * 3
    h_a, h_b = rng.normal(size=n) * 3, rng.normal(size=n) * 3
    eps = rng.uniform(0, 2, size=(n, 2))

    # relaxed violations straight from the thresholded definition
    def relaxed(g, h, eps):
        ha = np.abs(h)
        return np.where(g > eps[:, 0], g, 0.0) + np.where(ha > eps[:, 1], ha, 0.0)

    nu_a, nu_b = relaxed(g_a, h_a, eps), relaxed(g_b, h_b, eps)
    va = np.maximum(g_a, 0.0) + np.abs(h_a)
    vb = np.maximum(g_b, 0.0) + np.abs(h_b)

    # the vectorized oracle must agree with the library on a subsample,
    # one candidate (one constraint row) per call
    ok = True
    for i in range(0, n, 50):
        c = np.array([[g_a[i], h_a[i]]])
        ok &= relaxed_violations(c, 1, eps[i])[0] == nu_a[i]
        ok &= row_accounting(c, 1)[0][0] == va[i]

    for i in range(n):
        ok &= eps_compare((f_a[i], nu_a[i]), (f_b[i], nu_b[i])) == \
            direct_rule(f_a[i], nu_a[i], f_b[i], nu_b[i])
        # at eps = 0 the rule is feasibility-first lexicographic ordering
        got = eps_compare((f_a[i], va[i]), (f_b[i], vb[i]))
        if va[i] == 0.0 and vb[i] > 0.0:
            expect = -1
        elif vb[i] == 0.0 and va[i] > 0.0:
            expect = 1
        elif va[i] == vb[i]:
            expect = direct_rule(f_a[i], 0.0, f_b[i], 0.0)
        else:
            expect = -1 if va[i] < vb[i] else 1
        ok &= got == expect
    elapsed = time.time() - t0
    report(2, ok and elapsed < 5.0, "comparison rule agrees with direct oracle", elapsed)
    assert ok
    assert elapsed < 5.0


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_reward_bounds_and_worked_example():
    t0 = time.time()
    progress = dict(f_gbest_prev=3.0, f_gbest_now=3.0, f_gbest_0=3.0, f_agentbest=3.0,
                    nu_prev=10.0, nu_now=5.0, nu_0=10.0)
    (reward,) = rewards(**{k: np.array([v]) for k, v in progress.items()}, variant="full")
    worked = abs(reward - 0.25) < 1e-12
    assert worked

    rng = np.random.default_rng(77)
    bounded = True
    for episode in range(100):
        kind = SYNTHETIC_KINDS[episode % len(SYNTHETIC_KINDS)]
        problem = synthetic_family(kind, int(rng.integers(100)), 5)
        env = EpsilonControlEnv([problem], [np.random.default_rng(int(rng.integers(2**32)))],
                                ExperimentConfig(pop_size=50), 250)
        env.reset()
        while not env.terminal:
            (reward,) = env.step(int(rng.integers(11)))[:, STEP_COLUMNS.index("reward")]
            bounded &= 0.0 <= reward <= 1.0
    elapsed = time.time() - t0
    report(3, worked and bounded, "rewards bounded in [0,1]; worked example exact", elapsed)
    assert bounded


# -- criterion 4 -------------------------------------------------------------

def perturbed_losses(states, actions, ys, params, k, h):
    """loss_with_fixed_targets with entry i of params.arrays()[k] moved by h,
    for every i at once: a stack of parameter copies, one copy per entry."""
    arrays = params.arrays()
    size = arrays[k].size
    stack = np.repeat(arrays[k][None], size, axis=0)
    stack.reshape(size, size)[np.arange(size), np.arange(size)] += h
    w1, b1, w2, b2 = (stack if j == k else a[None] for j, a in enumerate(arrays))
    hidden = selu(states @ np.swapaxes(w1, 1, 2) + b1[:, None, :])
    q = sigmoid(hidden @ np.swapaxes(w2, 1, 2) + b2[:, None, :])
    err = q[:, np.arange(len(actions)), actions] - ys
    return np.mean(err ** 2, axis=-1)


def test_criterion_4_gradient_check_full_network():
    t0 = time.time()
    rng = np.random.default_rng(13)
    h = 1e-5
    worst = 0.0
    checked = perturbed = 0
    while checked < 100:
        params = init_params(rng=rng)
        target = init_params(rng=rng)
        batch = [
            Transition(rng.normal(size=10), int(rng.integers(11)),
                       float(rng.uniform()), rng.normal(size=10),
                       bool(rng.integers(2)))
            for _ in range(2)
        ]
        states = np.stack([tr.state for tr in batch])
        # central differences are invalid across the hidden activation's
        # kink at zero; redraw when a pre-activation sits inside the window
        z1 = states @ params.w1.T + params.b1
        if np.min(np.abs(z1)) < 1e-3:
            continue
        checked += 1
        actions = np.array([tr.action for tr in batch])
        ys = np.array([td_target(tr, params, target, 1.0) for tr in batch])
        loss, analytic = loss_with_fixed_targets(states, actions, ys, params)
        # central finite differences over every parameter, one stack per array
        for k, a_arr in enumerate(analytic.arrays()):
            assert np.all(perturbed_losses(states, actions, ys, params, k, 0.0) == loss)
            numeric = (perturbed_losses(states, actions, ys, params, k, h)
                       - perturbed_losses(states, actions, ys, params, k, -h)) / (2 * h)
            flat_a = a_arr.ravel()
            rel = np.abs(flat_a - numeric) / np.maximum(np.maximum(np.abs(flat_a),
                                                                  np.abs(numeric)), 1e-6)
            worst = max(worst, float(rel.max()))
            perturbed += numeric.size
    assert perturbed == 100 * 1419  # every parameter of every checked network
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, ok, f"gradient vs finite differences, max rel err {worst:.2e}", elapsed)
    assert worst < 1e-4
    assert elapsed < 30.0


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_single_transition_overfit():
    t0 = time.time()
    rng = np.random.default_rng(21)
    params = init_params(rng=rng)
    target = params.copy()
    tr = Transition(rng.normal(size=10), 6, 0.75, np.zeros(10), True)
    loss = np.inf
    steps = 0
    for steps in range(1, 2001):
        loss, grads = loss_and_grad([tr], params, target, 1.0)
        if loss < 1e-4:
            break
        sgd_step(params, grads, 1e-2)
    elapsed = time.time() - t0
    ok = loss < 1e-4 and elapsed < 10.0
    report(5, ok, f"single-transition overfit: loss {loss:.2e} after {steps} steps", elapsed)
    assert loss < 1e-4
    assert elapsed < 10.0


# -- criterion 6 -------------------------------------------------------------

def test_criterion_6_optimizer_sanity_sphere():
    t0 = time.time()
    problem = ConstrainedProblem(
        name="sphere10", dim=10,
        lower=np.full(10, -100.0), upper=np.full(10, 100.0),
        n_ineq=0, n_eq=0,
        evaluator=lambda X: (np.sum(X * X, axis=-1), np.zeros((len(X), 0))),
    )
    finals = []
    for seed in range(10):
        budget = BudgetCounter(10_000)
        rng = np.random.default_rng(seed)
        stats = RunStats(budget, 50)
        pop = init_population(problem, [rng], stats)
        while not budget.exhausted:
            generation_step(pop, problem, np.zeros(0), [rng], stats)
        finals.append(stats.f_gbest[0])
    elapsed = time.time() - t0
    ok = all(f <= 1e-2 for f in finals) and elapsed < 30.0
    report(6, ok, f"10-D sphere: worst final {max(finals):.2e} over 10 seeds", elapsed)
    assert all(f <= 1e-2 for f in finals)
    assert elapsed < 30.0


# -- criteria 7 and 8 (shared experiment) ------------------------------------

TRAIN_SET = [
    "synthetic/sphere-linear/0",
    "synthetic/rastrigin-ring/1",
    "synthetic/ackley-ellipsoid/2",
    "synthetic/griewank-plane/3",
    "synthetic/schwefel-band/4",
]
HELD_OUT = ["cec12", "cec14", "synthetic/rosenbrock-cubic/5", "synthetic/sphere-linear/9"]


@pytest.fixture(scope="module")
def trained_comparison():
    t0 = time.time()
    cfg = ExperimentConfig(problems=TRAIN_SET, dims=[10], pop_size=50,
                           maxfes_per_dim=50, runs=10, seed=0, epochs=50)
    result = train(cfg)
    held_out = dataclasses.replace(cfg, test_problems=HELD_OUT)
    records = evaluate(held_out, result.params, result.metadata)
    records += run_baseline(held_out, "untrained-agent")
    records += run_baseline(held_out, "scheduled-eps")
    means: dict[str, dict[str, float]] = {}
    for row in aggregate_table(records):
        means.setdefault(row["problem"], {})[row["method"]] = row["mean"]
    return means, time.time() - t0


def test_criterion_7_trained_vs_untrained(trained_comparison):
    means, elapsed = trained_comparison
    wins = sum(means[p]["trained-agent"] <= means[p]["untrained-agent"] for p in HELD_OUT)
    ok = wins >= 3 and elapsed < 1200.0
    report(7, ok, f"trained <= untrained mean score on {wins}/4 held-out problems", elapsed)
    assert wins >= 3
    assert elapsed < 1200.0


def test_criterion_8_trained_vs_scheduled(trained_comparison):
    means, elapsed = trained_comparison
    sched = next(m for m in means[HELD_OUT[0]] if m.startswith("scheduled-eps"))
    wins = sum(means[p]["trained-agent"] < means[p][sched] for p in HELD_OUT)
    ok = wins >= 2
    report(8, ok, f"trained beats scheduled baseline on {wins}/4 held-out problems", elapsed)
    assert wins >= 2


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_leave_one_out_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "loo.cfg"
    cfg.write_text("problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1, "
                   "synthetic/ackley-ellipsoid/2\ndims = 4\npop_size = 20\n"
                   "maxfes_per_dim = 20\nruns = 2\nseed = 11\nepochs = 2\n"
                   "buffer_capacity = 64\nbatch_size = 8\n")
    for label in ("a", "b"):
        assert main(["loo", "--config", str(cfg), "--out", str(tmp_path / label)]) == EXIT_OK
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    ok = True
    for name in names:
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    elapsed = time.time() - t0
    ok = ok and elapsed < 600.0
    report(9, ok, f"leave-one-out byte-identical across reruns ({len(names)} files)", elapsed)
    assert ok
    assert elapsed < 600.0


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_episode_accounting():
    t0 = time.time()
    ok = True
    for seed in range(5):
        problem = synthetic_family("rastrigin-ring", seed, 10)
        env = EpsilonControlEnv([problem], [np.random.default_rng(seed)],
                                ExperimentConfig(pop_size=50), 500)
        env.reset()
        rng = np.random.default_rng(seed + 100)
        steps = 0
        terminal_flags = []
        while not env.terminal:
            env.step(int(rng.integers(11)))
            steps += 1
            terminal_flags.append(env.terminal)
        ok &= steps == 9
        ok &= env.stats.budget.fes == 500
        ok &= terminal_flags.count(True) == 1 and terminal_flags[-1]
    elapsed = time.time() - t0
    report(10, ok, "9 meta-steps per 10-D episode, budget 500 consumed exactly", elapsed)
    assert ok
