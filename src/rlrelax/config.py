"""Experiment configuration and its plain key-value file format.

A config file holds ``key = value`` lines (``#`` comments and blank lines
ignored).  Every key has a default; unknown keys are rejected so typos
fail loudly.  Lists are comma-separated.

``ExperimentConfig`` is frozen, stores its lists as tuples and checks
itself when it is built (also by ``dataclasses.replace``): a bad value, or
a listed problem that does not resolve at a listed dim, raises
``ConfigError``.  The resolved problems' registry is ``cfg.registry``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

from .cop import DELTA_ACC_DEFAULT
from .env import DELTA_DEFAULT, REWARD_FULL, REWARD_VARIANTS, SCHEME_EXPONENTIAL, SCHEMES
from .lshade import N_MIN
from .problems import ProblemRegistry, UnknownProblemError, load_shift_table


class ConfigError(ValueError):
    """Invalid configuration (bad key, bad value, inconsistent settings)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; see README for per-key documentation."""

    problems: tuple[str, ...] = ()
    train_problems: tuple[str, ...] = ()  # split/ablate protocols
    test_problems: tuple[str, ...] = ()
    dims: tuple[int, ...] = (10,)
    pop_size: int = 50
    maxfes_per_dim: int = 50      # evaluation budget is maxfes_per_dim * dim
    runs: int = 10
    seed: int = 0
    lpsr: bool = False
    action_scheme: str = SCHEME_EXPONENTIAL
    reward_variant: str = REWARD_FULL
    mask_state: bool = False
    out_dir: str = "results"
    epochs: int = 50
    buffer_capacity: int = 4096
    batch_size: int = 64
    static_level: float = 0.5     # static baseline's fixed relaxation level
    sched_power: float = 5.0      # tightening exponent of the scheduled baseline
    delta: float = DELTA_DEFAULT
    delta_acc: float = DELTA_ACC_DEFAULT
    shift_file: str = ""          # optional shift-data override, see problems.py

    def __post_init__(self) -> None:
        """Store the lists as tuples and check every value; ConfigError names
        the first fault."""
        for key in ("problems", "train_problems", "test_problems", "dims"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.action_scheme not in SCHEMES:
            raise ConfigError(f"action_scheme must be one of {SCHEMES}")
        if self.reward_variant not in REWARD_VARIANTS:
            raise ConfigError(f"reward_variant must be one of {REWARD_VARIANTS}")
        for key in ("runs", "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.pop_size < N_MIN:
            raise ConfigError(f"pop_size must be >= {N_MIN}")
        if not 1 <= self.batch_size <= self.buffer_capacity:
            raise ConfigError("need 1 <= batch_size <= buffer_capacity")
        if not self.dims:
            raise ConfigError("dims must list at least one dimension")
        for key in ("problems", "train_problems", "test_problems", "dims"):
            values = getattr(self, key)
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:  # a repeat would run, write and merge the same runs twice
                raise ConfigError(f"{key} lists {repeats[0]!r} more than once")
        for key in ("delta", "delta_acc", "sched_power"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive")
        if not 0.0 <= self.static_level <= 1.0:
            raise ConfigError("static_level must be in [0, 1]")
        for d in self.dims:
            if self.maxfes_per_dim * d < 2 * self.pop_size:
                raise ConfigError(
                    f"budget {self.maxfes_per_dim}*{d} is below two generations "
                    f"of pop_size {self.pop_size}"
                )
        self.registry  # resolve every listed problem now, not at first use

    @cached_property
    def registry(self) -> ProblemRegistry:
        """The registry over the shift file, once every name in the problem
        lists resolves at every dim; ConfigError otherwise."""
        try:
            registry = ProblemRegistry(load_shift_table(self.shift_file)
                                       if self.shift_file else None)
            for name in dict.fromkeys(self.problems + self.train_problems + self.test_problems):
                for dim in self.dims:
                    registry.lookup(name, dim)
        except (UnknownProblemError, ValueError) as exc:  # a bad shift file is a ValueError
            raise ConfigError(str(exc)) from None
        return registry

    def maxfes(self, dim: int) -> int:
        return self.maxfes_per_dim * dim


# the value type of each key; a tuple is read as a comma-separated list
_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_list(raw: str) -> list[str]:
    """The items of a comma-separated list, blank items dropped."""
    return [v.strip() for v in raw.split(",") if v.strip()]


def parse_value(key: str, raw: str):
    """The value of ``key`` written as ``raw`` in a config file, typed by its field;
    ValueError if it does not parse."""
    raw, kind = raw.strip(), _TYPES[key]
    if kind is tuple:
        items = parse_list(raw)
        return [int(v) for v in items] if key == "dims" else items
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return kind(raw)


def parse_config_text(text: str, **overrides) -> ExperimentConfig:
    """The config of ``text``, with ``overrides`` replacing its values."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    return ExperimentConfig(**{**values, **overrides})


def load_config(path, **overrides) -> ExperimentConfig:
    """The config in the file at ``path``, with ``overrides`` replacing its values."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    return parse_config_text(text, **overrides)
