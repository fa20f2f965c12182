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


def top5_violation_mean(nu: np.ndarray):
    """Mean of the min(5, N) smallest exact violations ``nu`` (..., N) of
    each population."""
    if nu.shape[-1] == 0:
        raise ValueError("population must be non-empty")
    ascending = nu.copy()
    ascending.sort(axis=-1)
    return np.add.reduce(ascending[..., :5], axis=-1) / min(5, nu.shape[-1])


def pairwise_tradeoff(f: np.ndarray, nu: np.ndarray):
    """Fraction of member pairs whose objective and violation move together,
    over the last axis of f and nu; pairs tied in either count as not moving
    together, and fewer than two members give 0."""
    n = f.shape[-1]
    # a concordant pair is counted once, in the order in which f increases
    rising = (f[..., :, None] < f[..., None, :]) & (nu[..., :, None] < nu[..., None, :])
    return rising.sum(axis=(-2, -1)) / max(1, n * (n - 1) // 2)


def _std_and_mean(a: np.ndarray, axis):
    """np.std and np.mean of a over all axes but the first, bit for bit, mean summed once."""
    mean = np.add.reduce(a, axis=axis, keepdims=True) / a[0].size  # ndarray.mean's two calls
    dev = a - mean
    return np.sqrt(np.add.reduce(dev * dev, axis=axis) / a[0].size), mean.reshape(len(a))


def extract_state(pop: Population, lower: np.ndarray, upper: np.ndarray,
                  stats: RunStats) -> np.ndarray:
    """Build the 10-feature observation of each run, one row per run (R, 10).
    Every feature is reduced within its run, bitwise as for that run alone.

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
    fs = pop.f

    # the reductions run once over the stack; the guards, ratios and clip per run
    coords = (pop.x - lower) / (upper - lower)
    f_range = stats.f_max - stats.f_gbest
    norm_f = (fs - stats.f_gbest[:, None]) / np.where(f_range > 0.0, f_range, 1.0)[:, None]
    per_run = np.array([*_std_and_mean(coords, (1, 2)), f_range,
                        *_std_and_mean(norm_f, 1), fs.min(axis=1),
                        stats.f_pbest_0, stats.nu_top5, stats.nu_top5_0,
                        pop.feasible.sum(axis=1), np.full(len(fs), stats.prev_action),
                        pairwise_tradeoff(fs, pop.nu)]).T.tolist()
    s8 = stats.budget.fes / stats.budget.maxfes
    state = np.array([
        [s1, s2 if spread > 0.0 else 0.0, s3, s4 if spread > 0.0 else 0.0,
         1.0 if abs(f_pbest_0) < 1e-12 else min(max(f_pbest / f_pbest_0, -_S5_CLIP), _S5_CLIP),
         nu_top5 / nu_top5_0 if nu_top5_0 > 0.0 else 0.0, feasible / n, s8, s9, s10]
        for s1, s3, spread, s2, s4, f_pbest, f_pbest_0, nu_top5, nu_top5_0, feasible, s9, s10
        in per_run])
    if not np.isfinite(state).all():
        raise ValueError(f"non-finite state features: {state}")
    return state


def mask_constraint_features(state: np.ndarray) -> np.ndarray:
    """Zero the constraint-aware features (s6, s7, s9, s10); idempotent."""
    masked = np.asarray(state, dtype=float).copy()
    masked[..., list(MASKED_FEATURES)] = 0.0
    return masked
