"""The decision-process shell around the optimizer.

Each meta-step the controller picks a relaxation level, the level turns
into a per-constraint epsilon vector, the optimizer advances exactly one
generation under that epsilon, and the environment emits the next
observation plus a reward that blends objective progress and violation
progress.  An episode ends when the evaluation budget is spent.  One
environment runs R paired runs in lockstep, each on its own problem of one
dim and box, with its own level, epsilon, observation and reward.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cop import BudgetCounter, ConstrainedProblem, ProblemDefinitionError
# bench/spans.py patches top5_violation_mean here unguarded; it stays until its probe moves
from .features import extract_state, mask_constraint_features, top5_violation_mean  # noqa: F401
from .lshade import Population, RunStats, generation_step, init_population

if TYPE_CHECKING:
    from .config import ExperimentConfig

SCHEME_EXPONENTIAL = "exponential"
SCHEME_LINEAR_AA = "linear-aa"   # aggressive multiplicative adjustment
SCHEME_LINEAR_CA = "linear-ca"   # conservative multiplicative adjustment
SCHEMES = (SCHEME_EXPONENTIAL, SCHEME_LINEAR_AA, SCHEME_LINEAR_CA)

REWARD_FULL = "full"
REWARD_VARIANTS = (REWARD_FULL, "r1", "r2", "r1r2")

DELTA_DEFAULT = 1e-3

# the step record's columns, one float row per run: step and fes come first and
# are counts, exact integers below 2**53; sco is the run's best score so far
STEP_COLUMNS = ("step", "fes", "level", "eps_min", "eps_mean", "eps_max", "reward", "sco")


@dataclass(frozen=True)
class ActionSpace:
    """Discrete relaxation levels under one of three adjustment schemes."""

    scheme: str
    levels: np.ndarray

    @classmethod
    def for_scheme(cls, scheme: str) -> "ActionSpace":
        if scheme == SCHEME_EXPONENTIAL:
            levels = np.round(np.linspace(0.0, 1.0, 11), 10)
        elif scheme == SCHEME_LINEAR_AA:
            levels = 10.0 ** np.arange(-3.0, 4.0)
        elif scheme == SCHEME_LINEAR_CA:
            levels = np.round(np.arange(-5, 6) * 0.05, 10)
        else:
            raise ValueError(f"unknown action scheme {scheme!r}; choose from {SCHEMES}")
        return cls(scheme=scheme, levels=levels)

    @property
    def n_actions(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class EpsilonBase:
    """Fully-relaxed endpoint: per-constraint mean violation of the initial
    population, floored at the small threshold delta; one row per run."""

    values: np.ndarray
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        vals = np.maximum(np.asarray(self.values, dtype=float), self.delta)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_population(cls, pop: Population, delta: float = DELTA_DEFAULT,
                        layouts: list[tuple[slice, int, int]] | None = None) -> "EpsilonBase":
        """Each stretch of runs (runs, p, q) of ``layouts``, by default pop's own, takes
        its base from its p inequality and q equality columns, delta on the padding."""
        V, P = pop.V, pop.n_ineq
        values = np.zeros(V.shape[::2])
        # each term group averaged apart, at its own width: a mean over both groups,
        # or over a block widened by padding, rounds some runs differently
        for runs, p, q in layouts or [(slice(None), P, V.shape[-1] - P)]:
            values[runs, :p] = V[runs, :, :p].mean(axis=1)
            values[runs, P:P + q] = V[runs, :, P:P + q].mean(axis=1)
        return cls(values=values, delta=delta)


def epsilon_from_action(level, base: EpsilonBase) -> np.ndarray:
    """Exponential interpolation between the floor delta and the base vector:
    eps_i = base_i**a * delta**(1 - a), for one level a or one per row of base.

    a = 0 lands exactly on delta, a = 1 exactly on the base, and the map
    is componentwise monotone in a because every base_i >= delta.
    """
    levels = np.asarray(level, dtype=float)
    if not ((levels >= 0.0) & (levels <= 1.0)).all():  # NaN fails both
        raise ValueError(f"exponential scheme level must be in [0, 1], got {level}")
    levels = levels.tolist()
    if isinstance(levels, float):
        return base.values ** levels * base.delta ** (1.0 - levels)
    return _epsilon_rows(levels, base)


def _epsilon_rows(levels: list[float], base: EpsilonBase) -> np.ndarray:
    # one float exponent per row: numpy's power with an array exponent rounds some differently
    return np.array([v ** a * base.delta ** (1.0 - a) for v, a in zip(base.values, levels)])


def epsilon_linear_step(prev_eps: np.ndarray, level, base: EpsilonBase) -> np.ndarray:
    """Multiplicative sliding update eps <- eps * (1 - a), clipped to [0, base];
    a is one level or a column of one level per row of eps.

    Used by the two linear ablation schemes, whose levels may push the
    multiplier negative (floored at zero) or above one (capped at base).
    """
    return (np.asarray(prev_eps, dtype=float) * (1.0 - level)).clip(0.0, base.values)


def rewards(f_gbest_prev, f_gbest_now, f_gbest_0, f_agentbest, nu_prev, nu_now, nu_0,
            variant: str) -> np.ndarray:
    """Each run's reward from (R,) arrays of its progress values, clamped to [0, 1].

    r1 normalizes the objective-best improvement by the gap between the
    run's starting best and the best ever seen in training, and is 0 where
    that gap is not above 1e-12; r2 normalizes the top-5 violation improvement
    by its initial value, clamped to [0, 1]; gamma is the remaining violation
    fraction, clamped to [0, 1].  With no initial violation r2 is 0 and gamma
    is 0, or 1 once a violation appears.  The variants:

    full:  (r1 * (1 - gamma) + r2) / 2, the violation-progress weight
           shifting credit between the two signals
    r1 / r2: a single signal alone
    r1r2:  plain sum without the dynamic weighting

    Each run is computed in Python floats: R is small, often 1, and there a
    dozen numpy calls cost more than the arithmetic.  NaN fails both guards,
    min(max()) keeps -0.0 and NaN as ndarray.clip does, and no path divides
    by zero or warns.
    """
    if variant not in REWARD_VARIANTS:
        raise ValueError(f"unknown reward variant {variant!r}; choose from {REWARD_VARIANTS}")
    out = []
    for f_prev, f_now, f_0, f_best, n_prev, n_now, n_0 in zip(
            f_gbest_prev.tolist(), f_gbest_now.tolist(), f_gbest_0.tolist(),
            f_agentbest.tolist(), nu_prev.tolist(), nu_now.tolist(), nu_0.tolist()):
        denom = f_0 - f_best
        r1 = (f_prev - f_now) / denom if denom > 1e-12 else 0.0
        if n_0 > 0.0:
            r2 = min(max((n_prev - n_now) / n_0, 0.0), 1.0)
            gamma = min(max(n_now / n_0, 0.0), 1.0)
        else:
            r2, gamma = 0.0, (0.0 if n_now == 0.0 else 1.0)
        if variant == REWARD_FULL:
            r = (r1 * (1.0 - gamma) + r2) / 2.0
        else:
            r = {"r1": r1, "r2": r2, "r1r2": r1 + r2}[variant]
        out.append(min(max(r, 0.0), 1.0))
    return np.array(out, dtype=float)


def _stacked(problems: list[ConstrainedProblem]) -> ConstrainedProblem:
    """The problem of one run per entry of ``problems``, which share dim and box: the
    problem itself when all runs share one, else one of the widest layout (P = max
    n_ineq, Q = max n_eq) whose evaluator calls each problem's evaluate_batch on its
    equal per-run blocks of rows and puts its C in columns :n_ineq and P:P + n_eq, 0.0 elsewhere."""
    blocks = [list(runs) for _, runs in itertools.groupby(problems, key=id)]  # one per problem
    if len(blocks) == 1:
        return problems[0]
    name = " + ".join(block[0].name for block in blocks)
    P, Q = max(pr.n_ineq for pr in problems), max(pr.n_eq for pr in problems)

    def evaluator(X):
        n, extra = divmod(len(X), len(problems))
        if extra:
            raise ProblemDefinitionError(f"{name}: {len(X)} rows do not split into "
                                         f"{len(problems)} equal per-run blocks")
        f, C, b = np.empty(len(X)), np.zeros((len(X), P + Q)), 0
        for block in blocks:
            a, b, member = b, b + len(block) * n, block[0]
            f[a:b], C_r = member.evaluate_batch(X[a:b])
            p = member.n_ineq
            C[a:b, :p], C[a:b, P:P + member.n_eq] = C_r[:, :p], C_r[:, p:]
        return f, C

    return dataclasses.replace(problems[0], name=name, n_ineq=P, n_eq=Q, evaluator=evaluator,
                               feasible_point=None)


class EpsilonControlEnv:
    """R paired optimization runs, run r on ``problems[r]`` drawing from
    ``rngs[r]``, exposed as one episodic decision process with a run axis.

    The settings come from ``cfg``, the budget of each run is ``maxfes``.
    Construct, ``reset()`` once, then ``step(actions)`` until ``terminal``
    (True before ``reset()`` and once the shared budget is spent); a step
    returns its record (R, len(STEP_COLUMNS)), one row per run.  Baseline
    schedules drive the same machinery through ``step_with_epsilon``.
    ``stats`` is kept by lshade; the env holds only the decision process, per
    run: ``eps_base`` and ``current_eps`` (R, p+q), ``f_agentbest``, and
    ``state``, the observation computed on its first read after ``reset()``
    or a step; baselines never read it.  ``problem`` is the runs' stacked
    problem (see _stacked), whose p+q columns are the widest layout's; a run's
    epsilon statistics and base read only its own problem's columns.
    """

    def __init__(self, problems: list[ConstrainedProblem], rngs: list[np.random.Generator],
                 cfg: ExperimentConfig, maxfes: int, f_agentbest: float | None = None):
        if maxfes < 2 * cfg.pop_size:
            raise ValueError("budget must cover at least two generations")
        if len(problems) != len(rngs):
            raise ValueError(f"{len(problems)} problems for {len(rngs)} runs")
        self.problem, self.rngs, self.cfg, self.maxfes = _stacked(problems), rngs, cfg, maxfes
        P, b, self.layouts = self.problem.n_ineq, 0, []  # each stretch of runs: (runs, p, q)
        for (p, q), stretch in itertools.groupby((pr.n_ineq, pr.n_eq) for pr in problems):
            a, b = b, b + len(list(stretch))
            self.layouts.append((slice(a, b), p, q))
        # each stretch's own columns: a slice, so a view, unless padding splits them
        self._own = [(runs, slice(0, p + q) if p == P or not q else np.r_[:p, P:P + q])
                     for runs, p, q in self.layouts]
        self._m = [max(pr.n_constraints, 1) for pr in problems]
        self.action_space = ActionSpace.for_scheme(cfg.action_scheme)
        self._initial_agentbest = np.inf if f_agentbest is None else f_agentbest
        self.pop: Population | None = None
        self.stats: RunStats | None = None
        self._state: np.ndarray | None = None

    @property
    def terminal(self) -> bool:
        return self.stats is None or self.stats.budget.exhausted

    @property
    def state(self) -> np.ndarray:
        """Each run's observation (R, 10) of the current generation."""
        if self.stats is None:
            raise RuntimeError("no observation yet; call reset() before reading the state")
        if self._state is None:
            self._state = self._observe()
        return self._state

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> np.ndarray:
        """Initialize the populations, derive the relaxation bases, observe."""
        self.stats = RunStats(BudgetCounter(self.maxfes), self.cfg.pop_size,
                              lpsr=self.cfg.lpsr, delta_acc=self.cfg.delta_acc)
        self.pop = init_population(self.problem, self.rngs, self.stats)
        self.eps_base = EpsilonBase.from_population(self.pop, self.cfg.delta, self.layouts)
        self.current_eps = self.eps_base.values.copy()
        # best objective across all training so far
        self.f_agentbest = np.full(len(self.rngs), self._initial_agentbest)
        self.step_index = 0
        self._state = None
        return self.state

    def _observe(self) -> np.ndarray:
        s = extract_state(self.pop, self.problem.lower, self.problem.upper, self.stats)
        if self.cfg.mask_state:
            s = mask_constraint_features(s)
        return s

    # -- stepping ------------------------------------------------------------

    def epsilon_for_action(self, actions) -> tuple[np.ndarray, np.ndarray]:
        """Decode each run's action index: its epsilon (R, p+q) and the level
        (R,) that s9 and the step record keep; one action serves all runs.

        The exponential scheme's levels already live in [0, 1]; the two
        linear schemes record index / (n_actions - 1) instead because
        their raw levels leave the unit interval.
        """
        if self.terminal:  # before reset() there is no eps_base to scale
            raise RuntimeError("episode is terminal; call reset() before stepping")
        space = self.action_space
        if isinstance(actions, (list, tuple)) and any(isinstance(a, (bool, np.bool_)) for a in actions):
            actions = np.array(actions, dtype=object)  # numpy would read a bool entry as 1
        index = np.full(len(self.rngs), actions)
        if index.dtype.kind not in "iu" or not ((index >= 0) & (index < space.n_actions)).all():
            raise ValueError(f"action index must be an integer in [0, {space.n_actions}), "
                             f"got {index.tolist()}")
        levels = space.levels[index]
        if space.scheme == SCHEME_EXPONENTIAL:
            return _epsilon_rows(levels.tolist(), self.eps_base), levels
        return (epsilon_linear_step(self.current_eps, levels[:, None], self.eps_base),
                index / (space.n_actions - 1))

    def step(self, actions) -> np.ndarray:
        """Run one generation of each run under its action's decoded epsilon and level."""
        return self.step_with_epsilon(*self.epsilon_for_action(actions))

    def step_with_epsilon(self, eps: np.ndarray, level) -> np.ndarray:
        """Advance every run one generation under its row of ``eps`` (R, p+q);
        return the step record (R, len(STEP_COLUMNS)), one row per run.

        ``level`` is the [0, 1] knob recorded in the s9 feature and the
        step record; baseline schedules pass their own notion of it.  A
        single vector or level serves every run; a rejected one changes nothing.
        The values with one entry per run (level, reward, record row) are
        handled as Python floats in one pass, cheaper than numpy calls at
        small R; the epsilon statistics stay numpy reductions.
        """
        if self.terminal:
            raise RuntimeError("episode is terminal; call reset() before stepping")
        runs, m = len(self.rngs), self.problem.n_constraints
        levels = np.full(runs, level, dtype=float)
        level_list = levels.tolist()
        if not all(0.0 <= lv <= 1.0 for lv in level_list):  # NaN fails too
            raise ValueError(f"level must be finite and in [0, 1], got {level}")
        stats = self.stats
        f_gbest_prev, nu_prev = stats.f_gbest, stats.nu_top5

        # validates eps: a rejected vector leaves the episode as it was
        generation_step(self.pop, self.problem, eps, self.rngs, stats)
        self.current_eps = rows = np.empty((runs, m))  # (R, p+q), eps copied onto every row
        rows[...] = eps
        self.step_index += 1

        # the all-training best updates before the reward so r1 stays <= 1
        self.f_agentbest = np.minimum(self.f_agentbest, stats.f_gbest)
        stats.prev_action = levels
        self._state = None

        reward = rewards(f_gbest_prev, stats.f_gbest, stats.f_pbest_0, self.f_agentbest,
                         nu_prev, stats.nu_top5, stats.nu_top5_0, self.cfg.reward_variant)
        eps_stats = []  # over each run's own columns, 0 for a run without constraints
        for stretch, own in self._own:  # ufunc reduces; np.add.reduce: pairwise sums, -0.0 kept
            part = rows[stretch, own]
            eps_stats += (zip(np.minimum.reduce(part, 1).tolist(),
                              np.add.reduce(part, 1).tolist(), np.maximum.reduce(part, 1).tolist())
                          if part.shape[1] else [(0.0, 0.0, 0.0)] * len(part))
        step, fes = self.step_index, stats.budget.fes
        return np.array([[step, fes, lv, lo, total / m, hi, r, sco]  # STEP_COLUMNS' order
                         for lv, (lo, total, hi), m, r, sco in zip(
                             level_list, eps_stats, self._m, reward.tolist(),
                             stats.best_sco.tolist())],
                        dtype=float)
