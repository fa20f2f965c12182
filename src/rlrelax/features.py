"""Ten population-level features observed by the meta-level controller.

The observation summarizes where the population sits in the box, how the
objective values are dispersed against the run-historical range, progress
of objective and violation relative to the initial generation, the feasible
fraction, the consumed budget, the previous relaxation level, and the
pairwise objective/violation coupling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .lshade import Population, RunStats

# feature indices zeroed by the constraint-feature mask (0-based)
MASKED_FEATURES = (5, 6, 8, 9)

_S5_CLIP = 10.0


def top5_violation_mean(nu: np.ndarray) -> float:
    """Mean of the min(5, N) smallest exact violations ``nu`` of a population."""
    if len(nu) == 0:
        raise ValueError("population must be non-empty")
    return float(np.mean(np.sort(nu)[:5]))


def pairwise_tradeoff(f: np.ndarray, nu: np.ndarray) -> float:
    """Fraction of member pairs whose objective and violation move together;
    pairs tied in either count as not moving together, and fewer than two
    members give 0."""
    n = f.size
    if n < 2:
        return 0.0
    # the product matrix is symmetric with a zero diagonal, so every
    # concordant pair is counted twice
    prod = (f[:, None] - f[None, :]) * (nu[:, None] - nu[None, :])
    return int(np.count_nonzero(prod > 0.0)) // 2 / (n * (n - 1) // 2)


def extract_state(pop: Population, lower: np.ndarray, upper: np.ndarray,
                  stats: RunStats) -> np.ndarray:
    """Build the 10-feature observation for the current population.

    s1  pooled std of box-normalized coordinates
    s2  std of objective values normalized by the historical (best, worst) range
    s3  pooled mean of box-normalized coordinates
    s4  mean of the same normalized objective values
    s5  population-best objective over its generation-0 value (guarded, clipped)
    s6  top-5 violation mean over its generation-0 value, both kept in stats by lshade
    s7  feasible fraction at the run's accuracy delta_acc
    s8  consumed budget fraction
    s9  previous relaxation level
    s10 fraction of member pairs whose objective and violation move together
    """
    n = pop.size
    if n == 0:
        raise ValueError("population must be non-empty")
    xs, fs, nus = pop.x, pop.f, pop.nu

    coords = (xs - lower) / (upper - lower)
    s1 = float(np.std(coords))
    s3 = float(np.mean(coords))

    f_range = stats.f_max - stats.f_gbest
    if f_range > 0.0:
        norm_f = (fs - stats.f_gbest) / f_range
        s2 = float(np.std(norm_f))
        s4 = float(np.mean(norm_f))
    else:
        s2 = 0.0
        s4 = 0.0

    f_pbest = float(np.min(fs))
    if abs(stats.f_pbest_0) < 1e-12:
        s5 = 1.0
    else:
        s5 = float(np.clip(f_pbest / stats.f_pbest_0, -_S5_CLIP, _S5_CLIP))

    s6 = stats.nu_top5 / stats.nu_top5_0 if stats.nu_top5_0 > 0.0 else 0.0
    s7 = int(np.count_nonzero(pop.feasible)) / n
    s8 = stats.budget.fes / stats.budget.maxfes
    s9 = stats.prev_action

    s10 = pairwise_tradeoff(fs, nus)

    state = np.array([s1, s2, s3, s4, s5, s6, s7, s8, s9, s10], dtype=float)
    if not np.all(np.isfinite(state)):
        raise ValueError(f"non-finite state features: {state}")
    return state


def mask_constraint_features(state: np.ndarray) -> np.ndarray:
    """Zero the constraint-aware features (s6, s7, s9, s10); idempotent."""
    masked = np.asarray(state, dtype=float).copy()
    masked[list(MASKED_FEATURES)] = 0.0
    return masked
