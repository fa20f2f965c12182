"""The decision-process shell around the optimizer.

Each meta-step the controller picks a relaxation level, the level turns
into a per-constraint epsilon vector, the optimizer advances exactly one
generation under that epsilon, and the environment emits the next
observation plus a reward that blends objective progress and violation
progress.  An episode ends when the evaluation budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cop import DELTA_ACC_DEFAULT, BudgetCounter, ConstrainedProblem, epsilon_vector
# bench/spans.py patches top5_violation_mean here unguarded; it stays until its probe moves
from .features import extract_state, mask_constraint_features, top5_violation_mean  # noqa: F401
from .lshade import Population, RunStats, generation_step, init_population

SCHEME_EXPONENTIAL = "exponential"
SCHEME_LINEAR_AA = "linear-aa"   # aggressive multiplicative adjustment
SCHEME_LINEAR_CA = "linear-ca"   # conservative multiplicative adjustment
SCHEMES = (SCHEME_EXPONENTIAL, SCHEME_LINEAR_AA, SCHEME_LINEAR_CA)

REWARD_VARIANTS = ("full", "r1", "r2", "r1r2")

DELTA_DEFAULT = 1e-3


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

    def level(self, index: int) -> float:
        return float(self.levels[index])

    def normalized_level(self, index: int) -> float:
        """Level rescaled to [0, 1] for the s9 feature and trace logs.

        The exponential scheme's levels already live in [0, 1]; the two
        linear schemes report index / (n_actions - 1) instead because
        their raw levels leave the unit interval.
        """
        if self.scheme == SCHEME_EXPONENTIAL:
            return self.level(index)
        return index / (self.n_actions - 1)


@dataclass(frozen=True)
class EpsilonBase:
    """Fully-relaxed endpoint: per-constraint mean violation of the initial
    population, floored at the small threshold delta."""

    values: np.ndarray
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        vals = np.maximum(np.asarray(self.values, dtype=float), self.delta)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_population(cls, pop: Population, delta: float = DELTA_DEFAULT) -> "EpsilonBase":
        p = pop.n_ineq
        per_constraint = np.concatenate([np.maximum(pop.C[:, :p], 0.0).mean(axis=0),
                                         np.abs(pop.C[:, p:]).mean(axis=0)])
        return cls(values=per_constraint, delta=delta)


def epsilon_from_action(level: float, base: EpsilonBase) -> np.ndarray:
    """Exponential interpolation between the floor delta and the base vector:
    eps_i = base_i**a * delta**(1 - a).

    a = 0 lands exactly on delta, a = 1 exactly on the base, and the map
    is componentwise monotone in a because every base_i >= delta.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"exponential scheme level must be in [0, 1], got {level}")
    return base.values ** level * base.delta ** (1.0 - level)


def epsilon_linear_step(prev_eps: np.ndarray, level: float, base: EpsilonBase) -> np.ndarray:
    """Multiplicative sliding update eps <- eps * (1 - a), clipped to [0, base].

    Used by the two linear ablation schemes, whose levels may push the
    multiplier negative (floored at zero) or above one (capped at base).
    """
    return np.clip(np.asarray(prev_eps, dtype=float) * (1.0 - level), 0.0, base.values)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


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
        gamma = float(np.clip(nu_now / nu_0, 0.0, 1.0))
    else:
        r2 = 0.0
        gamma = 0.0 if nu_now == 0.0 else 1.0
    r2 = float(np.clip(r2, 0.0, 1.0))
    return float(r1), r2, gamma


def compute_reward(r1: float, r2: float, gamma: float, variant: str = "full") -> float:
    """Blend the progress signals; every variant is clamped to [0, 1].

    full:  (r1 * (1 - gamma) + r2) / 2, the violation-progress weight
           shifting credit between the two signals
    r1 / r2: a single signal alone
    r1r2:  plain sum without the dynamic weighting
    """
    if variant == "full":
        r = (r1 * (1.0 - gamma) + r2) / 2.0
    elif variant == "r1":
        r = r1
    elif variant == "r2":
        r = r2
    elif variant == "r1r2":
        r = r1 + r2
    else:
        raise ValueError(f"unknown reward variant {variant!r}; choose from {REWARD_VARIANTS}")
    return float(np.clip(r, 0.0, 1.0))


class EpsilonControlEnv:
    """One optimization run exposed as an episodic decision process.

    Construct, ``reset()`` once, then ``step(action_index)`` until ``terminal``
    (True before ``reset()`` and once the budget is spent).  Baseline schedules
    drive the same machinery through ``step_with_epsilon``.  ``stats``, the
    run's ``RunStats``, is kept by lshade; the env holds only the decision
    process: epsilon base and current, ``f_agentbest``, ``step_index``, ``state``.
    """

    def __init__(self, problem: ConstrainedProblem, rng: np.random.Generator, *,
                 n_pop: int, maxfes: int,
                 action_space: ActionSpace | None = None,
                 delta: float = DELTA_DEFAULT, delta_acc: float = DELTA_ACC_DEFAULT,
                 reward_variant: str = "full", mask_state: bool = False,
                 lpsr: bool = False, f_agentbest: float | None = None):
        if reward_variant not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant {reward_variant!r}")
        self.problem = problem
        self.rng = rng
        self.n_pop = n_pop
        self.maxfes = maxfes
        if maxfes < 2 * n_pop:
            raise ValueError("budget must cover at least two generations")
        self.action_space = action_space or ActionSpace.for_scheme(SCHEME_EXPONENTIAL)
        self.delta = delta
        self.delta_acc = delta_acc
        self.reward_variant = reward_variant
        self.mask_state = mask_state
        self.lpsr = lpsr
        self._initial_agentbest = f_agentbest

        self.pop: Population | None = None
        self.stats: RunStats | None = None

    @property
    def terminal(self) -> bool:
        return self.stats is None or self.stats.budget.exhausted

    # -- episode lifecycle ---------------------------------------------------

    def reset(self) -> np.ndarray:
        """Initialize the population, derive the relaxation base, observe."""
        self.stats = RunStats(BudgetCounter(self.maxfes), self.n_pop, lpsr=self.lpsr,
                              delta_acc=self.delta_acc)
        self.pop = init_population(self.problem, self.rng, self.stats)
        self.eps_base = EpsilonBase.from_population(self.pop, self.delta)
        self.current_eps = self.eps_base.values.copy()
        # best objective across all training so far
        self.f_agentbest = np.inf if self._initial_agentbest is None else self._initial_agentbest
        self.step_index = 0
        self.state = self._observe()
        return self.state

    def _observe(self) -> np.ndarray:
        s = extract_state(self.pop, self.problem.lower, self.problem.upper, self.stats)
        if self.mask_state:
            s = mask_constraint_features(s)
        return s

    # -- stepping ------------------------------------------------------------

    def epsilon_for_action(self, action: int) -> np.ndarray:
        level = self.action_space.level(action)
        if self.action_space.scheme == SCHEME_EXPONENTIAL:
            return epsilon_from_action(level, self.eps_base)
        return epsilon_linear_step(self.current_eps, level, self.eps_base)

    def step(self, action: int) -> tuple[Transition, dict]:
        """Run one generation under the chosen action's relaxation level."""
        eps = self.epsilon_for_action(action)
        return self.step_with_epsilon(eps, self.action_space.normalized_level(action),
                                      action=action)

    def step_with_epsilon(self, eps: np.ndarray, level: float,
                          action: int = -1) -> tuple[Transition, dict]:
        """Advance one generation under an explicit relaxation vector.

        ``level`` is the [0, 1] knob recorded in the s9 feature and the
        step trace; baseline schedules pass their own notion of it.
        """
        if self.terminal:
            raise RuntimeError("episode is terminal; call reset() before stepping")
        # a rejected vector must leave the episode as it was
        eps = epsilon_vector(eps, self.problem.n_constraints)
        state = self.state
        f_gbest_prev, nu_prev = self.stats.f_gbest, self.stats.nu_top5

        self.current_eps = eps
        generation_step(self.pop, self.problem, self.current_eps, self.rng, self.stats)
        self.step_index += 1

        # the all-training best updates before the reward so r1 stays <= 1
        self.f_agentbest = min(self.f_agentbest, self.stats.f_gbest)
        r1, r2, gamma = reward_components(
            f_gbest_prev, self.stats.f_gbest, self.stats.f_pbest_0, self.f_agentbest,
            nu_prev, self.stats.nu_top5, self.stats.nu_top5_0,
        )
        reward = compute_reward(r1, r2, gamma, self.reward_variant)

        self.stats.prev_action = level
        next_state = self._observe()
        self.state = next_state

        info = {
            "step": self.step_index,
            "fes": self.stats.budget.fes,
            "level": level,
            "eps_min": float(np.min(self.current_eps)) if self.current_eps.size else 0.0,
            "eps_mean": float(np.mean(self.current_eps)) if self.current_eps.size else 0.0,
            "eps_max": float(np.max(self.current_eps)) if self.current_eps.size else 0.0,
            "reward": reward,
            "r1": r1,
            "r2": r2,
            "gamma": gamma,
            "sco": self.stats.best_sco,
        }
        return Transition(state, action, reward, next_state, self.terminal), info
