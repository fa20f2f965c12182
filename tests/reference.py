"""One-candidate oracles that the tests compare the row-wise program against.

The program computes every step on rows: ``cop.row_accounting`` (each
row's exact violation, relaxed violation and feasibility) and
``relaxed_violations`` over a constraint batch, and
``features.pairwise_tradeoff`` over all member pairs at once.  The
functions here are the same definitions written the plain way, for one
candidate or one pair at a time: a candidate's ``Evaluation``, its exact
and relaxed violation, its feasibility and its score, and the s10 feature
over the upper triangle of pairs.  The tests require the row-wise forms to
equal these bit for bit.  ``archive_after_selection`` is the archive
update of one generation the plain way, a list of row copies with one
scalar draw per pop, which the program's index walk must reproduce.
``update_memory`` is one run's success-history update on that run's own
winners, which the stacked ``lshade.update_memory`` over the winners of
all runs must equal run by run.
``draw_generation_one_run`` is one run's draws of a generation, clipped and
stepped on that run's vectors alone, which the stacked draws of
``lshade.draw_generation`` must equal run by run.
``loss_with_fixed_targets`` is the learner's backward pass with SELU and
its derivative each computing their own ``exp``, which the one-``exp`` pass
of ``agent.loss_with_fixed_targets`` must equal in the loss and in every
gradient.
``split_accounting`` and ``eps_base_values`` are the batch accounting and
the ε base straight from the raw constraint values C, split into g and
|h|, which the accounting over the stored violation terms V must equal.
``repair_bounds`` is the midpoint bound repair as two passes, the lower
bound first, which ``lshade.repair_bounds``'s one pass must equal.
``trial_positions`` is a generation's trials written out: the
current-to-pbest/1 donor as one expression, a ``where`` over the crossover
mask and the two-pass repair, which the in-place donor, the bitwise select
and the in-place repair of ``lshade.generation_step`` must equal.
``cec12_rows`` and ``griewank`` are the evaluator formulas written with
``y * y`` twice and ``sqrt(1..D)`` per call, which the problems must equal.
``reward_components`` and ``compute_reward`` are one run's reward in two
calls, r1, r2 and gamma first and then their blend, which ``env.rewards``'s
one loop over the (R,) arrays of all runs must equal run by run.
``ListReplayBuffer`` is the replay ring as a list of ``Transition`` objects,
whose samples, and the generator states they leave, the column store of
``agent.ReplayBuffer`` must reproduce.
``action_epsilon`` is each run's decoded action written out row by row, the
exponential interpolation or the clipped linear slide and the level the
step records, which ``env.EpsilonControlEnv.epsilon_for_action`` and the
step through it must equal byte for byte.
``wrapped_loss_and_grad`` and ``wrapped_loss_with_fixed_targets`` are the
learner's update written with numpy's Python wrappers (``mean``, ``sum`` and
``zeros_like``), which ``agent.loss_and_grad``'s calls to the ufuncs behind
them must equal in the loss and in every gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rlrelax.agent import (SELU_ALPHA, SELU_LAMBDA, Batch, NetworkParams, forward_batch, selu,
                           sigmoid)
from rlrelax.cop import ProblemDefinitionError, epsilon_vector
from rlrelax.env import REWARD_FULL, REWARD_VARIANTS, SCHEME_EXPONENTIAL
from rlrelax.lshade import P_BEST_RATE, Draws, SuccessHistory


@dataclass(frozen=True)
class Evaluation:
    """One candidate's objective value plus raw constraint values."""

    f: float
    g: np.ndarray  # inequality values, length p; feasible when <= 0
    h: np.ndarray  # equality residuals, length q; feasible when == 0

    def __post_init__(self):
        object.__setattr__(self, "g", np.atleast_1d(np.asarray(self.g, dtype=float)))
        object.__setattr__(self, "h", np.atleast_1d(np.asarray(self.h, dtype=float)))
        object.__setattr__(self, "f", float(self.f))


def evaluation(problem, x) -> Evaluation:
    """One candidate through the problem's one-row view."""
    f, c = problem.evaluate(x)
    return Evaluation(f, c[:problem.n_ineq], c[problem.n_ineq:])


def violation(e: Evaluation) -> float:
    """Exact aggregated violation: positive inequality excess plus |h|."""
    if not (np.all(np.isfinite(e.g)) and np.all(np.isfinite(e.h))):
        raise ProblemDefinitionError("non-finite constraint value")
    return float(np.sum(np.maximum(e.g, 0.0)) + np.sum(np.abs(e.h)))


def relaxed_violation(e: Evaluation, eps: np.ndarray) -> float:
    """Aggregated violation with per-constraint thresholds zeroed out.

    An inequality contributes g_i only when g_i > eps_i; an equality
    contributes |h_j| only when |h_j| > eps_{p+j}.  The first p entries of
    ``eps`` belong to the inequalities.  A value exactly at its threshold
    is zeroed.
    """
    p = e.g.shape[0]
    eps = epsilon_vector(eps, p + e.h.shape[0])
    g_part = np.where(e.g > eps[:p], e.g, 0.0)
    h_abs = np.abs(e.h)
    h_part = np.where(h_abs > eps[p:], h_abs, 0.0)
    return float(np.sum(g_part) + np.sum(h_part))


def is_feasible(e: Evaluation, delta_acc: float = 1e-3) -> bool:
    """Feasibility at accuracy level delta_acc: every g <= delta, |h| <= delta."""
    if delta_acc <= 0:
        raise ValueError("delta_acc must be positive")
    return bool(np.all(e.g <= delta_acc) and np.all(np.abs(e.h) <= delta_acc))


def sco(e: Evaluation, delta_acc: float = 1e-3) -> float:
    """Scoring metric: objective plus violation, with the violation zeroed
    for solutions feasible within delta_acc."""
    if is_feasible(e, delta_acc):
        return e.f
    return e.f + violation(e)


def pairwise_tradeoff(f: np.ndarray, nu: np.ndarray) -> float:
    """The s10 feature over the upper triangle of member pairs: the share
    whose objective and violation differences have the same strict sign."""
    n = len(f)
    if n < 2:
        return 0.0
    df = f[:, None] - f[None, :]
    dnu = nu[:, None] - nu[None, :]
    iu = np.triu_indices(n, k=1)
    return float(np.mean(np.sign(df[iu]) * np.sign(dnu[iu]) > 0.0))


def archive_after_selection(archive, x, won, n, rng, size=None) -> list[np.ndarray]:
    """One run's archive after a generation's selection: each winner's parent
    x[i], in index order, appended as a copy, and one ``rng.integers(len)``
    pop whenever the list then holds more than n; with LPSR (``size`` given)
    one more such pop per entry beyond the new population size."""
    archive = [row.copy() for row in archive]
    for i in np.flatnonzero(won).tolist():
        archive.append(x[i].copy())
        if len(archive) > n:
            archive.pop(int(rng.integers(len(archive))))
    while size is not None and len(archive) > size:
        archive.pop(int(rng.integers(len(archive))))
    return archive


def update_memory(hist: SuccessHistory, f_vals, cr_vals, weights) -> None:
    """One run's memory update: the weighted Lehmer mean of the successful
    F and the weighted mean of their CR into slot k, the weights divided by
    their sum (at least 1e-300); the slot goes terminal (NaN) once the
    successful CRs are all zero, and stays so.  No successes change nothing."""
    f_vals = np.asarray(f_vals, dtype=float)
    cr_vals = np.asarray(cr_vals, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if f_vals.size == 0:
        return
    w = weights / max(weights.sum(), 1e-300)
    wf = w * f_vals
    hist.m_f[hist.k] = (wf * f_vals).sum() / wf.sum()
    if math.isnan(hist.m_cr[hist.k]) or cr_vals.max() <= 0.0:
        hist.m_cr[hist.k] = np.nan
    else:
        hist.m_cr[hist.k] = (w * cr_vals).sum()
    hist.k = (hist.k + 1) % hist.m_f.size


def draw_generation_one_run(hist: SuccessHistory, n: int, n_archive: int, d: int,
                            rng: np.random.Generator) -> Draws:
    """One run's draws of a generation as eight vectors, in this order:
    memory slots, F's Cauchy draws (redrawn only where F <= 0), CR's normal
    draws (one per member, unused on a terminal slot), pbest ranks, r1, r2,
    crossover's uniforms and its forced coordinates."""
    slot = rng.integers(hist.m_f.size, size=n)
    f_raw = hist.m_f[slot] + 0.1 * rng.standard_cauchy(n)
    redraw = np.flatnonzero(f_raw <= 0.0)
    while redraw.size:
        f_raw[redraw] = hist.m_f[slot[redraw]] + 0.1 * rng.standard_cauchy(redraw.size)
        redraw = redraw[f_raw[redraw] <= 0.0]
    m_cr = hist.m_cr[slot]
    CR = np.where(np.isnan(m_cr), 0.0, np.clip(m_cr + 0.1 * rng.standard_normal(n), 0.0, 1.0))
    pbest = rng.integers(max(1, math.ceil(P_BEST_RATE * n)), size=n)
    # r1 and r2 are drawn from ranges short by the excluded indices, then
    # stepped past each excluded index in increasing order
    i = np.arange(n)
    r1 = rng.integers(n - 1, size=n)
    r1 += r1 >= i
    r2 = rng.integers(n + n_archive - 2, size=n)
    r2 += r2 >= np.minimum(i, r1)
    r2 += r2 >= np.maximum(i, r1)
    u = rng.random((n, d))
    j = rng.integers(d, size=n)
    return Draws(slot, np.minimum(f_raw, 1.0), CR, pbest, r1, r2, u, j)


def selu_grad(x: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(x > 0.0, 1.0, SELU_ALPHA * np.exp(x))


def loss_with_fixed_targets(states: np.ndarray, actions: np.ndarray, ys: np.ndarray,
                            params: NetworkParams) -> tuple[float, NetworkParams]:
    """Mean squared error of the taken-action outputs against fixed targets,
    and its gradient averaged over the batch; only the taken action's output
    contributes per sample."""
    n = states.shape[0]
    z1 = states @ params.w1.T + params.b1          # (n, hidden)
    hidden = selu(z1)
    z2 = hidden @ params.w2.T + params.b2          # (n, out)
    q = sigmoid(z2)
    q_taken = q[np.arange(n), actions]

    err = q_taken - ys
    loss = float((err ** 2).mean())

    # d(loss)/d(z2): only the taken-action column is non-zero per sample
    dz2 = np.zeros_like(z2)
    dz2[np.arange(n), actions] = 2.0 * err * q_taken * (1.0 - q_taken) / n
    dw2 = dz2.T @ hidden
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ params.w2) * selu_grad(z1)
    dw1 = dz1.T @ states
    db1 = dz1.sum(axis=0)
    return loss, NetworkParams(dw1, db1, dw2, db2)


def split_accounting(C: np.ndarray, n_ineq: int, eps: np.ndarray, delta_acc: float):
    """Every row's exact violation, relaxed violation and feasibility from
    C (..., p+q) split into g and |h|, each group summed on its own."""
    g, h_abs = C[..., :n_ineq], np.abs(C[..., n_ineq:])
    eps = eps[..., None, :]
    nu = np.maximum(g, 0.0).sum(-1) + h_abs.sum(-1)
    nu_eps = (np.where(g > eps[..., :n_ineq], g, 0.0).sum(-1)
              + np.where(h_abs > eps[..., n_ineq:], h_abs, 0.0).sum(-1))
    return nu, nu_eps, (g <= delta_acc).all(-1) & (h_abs <= delta_acc).all(-1)


def eps_base_values(C: np.ndarray, n_ineq: int) -> np.ndarray:
    """The unfloored ε base of a stack C (R, N, p+q): each run's mean of
    max(g, 0) and of |h| over its members."""
    return np.concatenate([np.maximum(C[..., :n_ineq], 0.0).mean(axis=1),
                           np.abs(C[..., n_ineq:]).mean(axis=1)], axis=-1)


def repair_bounds(t: np.ndarray, x: np.ndarray, lower: np.ndarray,
                  upper: np.ndarray) -> np.ndarray:
    """Midpoint bound repair in two passes: below lower -> (x + lower) / 2,
    then above upper -> (x + upper) / 2."""
    t = np.where(t < lower, (x + lower) / 2.0, t)
    return np.where(t > upper, (x + upper) / 2.0, t)


def trial_positions(x: np.ndarray, x_pbest: np.ndarray, x_r1: np.ndarray, x_r2: np.ndarray,
                    F: np.ndarray, mask: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray) -> np.ndarray:
    """The trials of parents x (R, N, D): donor coordinates where mask holds,
    the parent's elsewhere, repaired into the box; F is (R, N, 1)."""
    donor = x + F * (x_pbest - x) + F * (x_r1 - x_r2)
    return repair_bounds(np.where(mask, donor, x), x, lower, upper)


def cec12_rows(X: np.ndarray, o: np.ndarray):
    """cec12's (f, C) of the rows of X at shift o."""
    y = X - o
    f = (y * y - 10.0 * np.cos(2.0 * np.pi * y) + 10.0).sum(-1)
    g1 = 4.0 - np.abs(y).sum(-1)
    h1 = (y * y).sum(-1) - 4.0
    return f, np.concatenate([g1[:, None], h1[:, None]], axis=1)


def griewank(y: np.ndarray) -> np.ndarray:
    """Griewank's function of the rows of y."""
    idx = np.arange(1, y.shape[-1] + 1, dtype=float)
    return (y * y).sum(-1) / 4000.0 - np.cos(y / np.sqrt(idx)).prod(-1) + 1.0


def reward_components(f_gbest_prev: float, f_gbest_now: float, f_gbest_0: float,
                      f_agentbest: float, nu_prev: float, nu_now: float,
                      nu_0: float) -> tuple[float, float, float]:
    """The two progress signals and the violation-progress weight.

    r1 normalizes the objective-best improvement by the gap between the
    run's starting best and the best ever seen in training; r2 normalizes
    the top-5 violation improvement by its initial value; gamma is the
    remaining violation fraction, clipped to [0, 1].
    """
    denom = f_gbest_0 - f_agentbest
    r1 = (f_gbest_prev - f_gbest_now) / denom if denom > 1e-12 else 0.0
    if nu_0 > 0.0:
        r2 = (nu_prev - nu_now) / nu_0
        gamma = float(min(max(nu_now / nu_0, 0.0), 1.0))  # np.clip's bits, -0.0 and NaN too
    else:
        r2 = 0.0
        gamma = 0.0 if nu_now == 0.0 else 1.0
    r2 = float(min(max(r2, 0.0), 1.0))
    return float(r1), r2, gamma


def compute_reward(r1: float, r2: float, gamma: float, variant: str) -> float:
    """Blend the progress signals; every variant is clamped to [0, 1].

    full:  (r1 * (1 - gamma) + r2) / 2, the violation-progress weight
           shifting credit between the two signals
    r1 / r2: a single signal alone
    r1r2:  plain sum without the dynamic weighting
    """
    if variant == REWARD_FULL:
        r = (r1 * (1.0 - gamma) + r2) / 2.0
    elif variant == "r1":
        r = r1
    elif variant == "r2":
        r = r2
    elif variant == "r1r2":
        r = r1 + r2
    else:
        raise ValueError(f"unknown reward variant {variant!r}; choose from {REWARD_VARIANTS}")
    return float(min(max(r, 0.0), 1.0))


def action_epsilon(space, index: list[int], prev_eps: np.ndarray, base: np.ndarray,
                   delta: float) -> tuple[np.ndarray, list[float]]:
    """Each run's epsilon row and recorded level for its action index.

    The exponential scheme gives base_r**a * delta**(1 - a) with one float
    exponent a per row and records a; the linear schemes give
    clip(prev_r * (1 - a), 0, base_r) and record i / (n - 1).
    """
    rows, recorded = [], []
    for i, prev_row, base_row in zip(index, prev_eps, base):
        a = float(space.levels[i])
        if space.scheme == SCHEME_EXPONENTIAL:
            rows.append(base_row ** a * delta ** (1.0 - a))
            recorded.append(a)
        else:
            rows.append(np.clip(prev_row * (1.0 - a), 0.0, base_row))
            recorded.append(i / (space.n_actions - 1))
    return np.array(rows), recorded


class ListReplayBuffer:
    """Fixed-capacity ring of transitions in a list, with uniform sampling."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list = []
        self._cursor = 0

    def push(self, tr) -> None:
        if len(self._items) < self.capacity:
            self._items.append(tr)
        else:
            self._items[self._cursor] = tr
        self._cursor = (self._cursor + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list:
        """Uniform sample without replacement within the batch."""
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[i] for i in idx]


def wrapped_loss_with_fixed_targets(states: np.ndarray, actions: np.ndarray, ys: np.ndarray,
                                    params: NetworkParams) -> tuple[float, NetworkParams]:
    """The fixed-target loss and its gradient with one exp, the mean through
    ``ndarray.mean`` and the bias sums through ``ndarray.sum``."""
    n = states.shape[0]
    z1 = states @ params.w1.T + params.b1          # (n, hidden)
    positive, e = z1 > 0.0, np.exp(z1)  # one exp for SELU and its derivative
    hidden = SELU_LAMBDA * np.where(positive, z1, SELU_ALPHA * (e - 1.0))
    z2 = hidden @ params.w2.T + params.b2          # (n, out)
    q = sigmoid(z2)
    q_taken = q[np.arange(n), actions]

    err = q_taken - ys
    loss = float((err ** 2).mean())

    # d(loss)/d(z2): only the taken-action column is non-zero per sample
    dz2 = np.zeros_like(z2)
    dz2[np.arange(n), actions] = 2.0 * err * q_taken * (1.0 - q_taken) / n
    dw2 = dz2.T @ hidden
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ params.w2) * (SELU_LAMBDA * np.where(positive, 1.0, SELU_ALPHA * e))
    dw1 = dz1.T @ states
    db1 = dz1.sum(axis=0)
    return loss, NetworkParams(dw1, db1, dw2, db2)


def wrapped_loss_and_grad(batch: Batch, online: NetworkParams, target: NetworkParams,
                          discount: float) -> tuple[float, NetworkParams]:
    """The double-estimator targets of a ``Batch``, then ``wrapped_loss_with_fixed_targets``."""
    ys = batch.rewards.copy()
    live = ~batch.terminals
    if live.any():
        pair = NetworkParams(*map(np.array, zip(online.arrays(), target.arrays())))
        q_online, q_target = forward_batch(batch.next_states[live], pair)
        a_next = q_online.argmax(axis=1)
        ys[live] = ys[live] + discount * q_target[np.arange(a_next.size), a_next]
    return wrapped_loss_with_fixed_targets(batch.states, batch.actions, ys, online)
