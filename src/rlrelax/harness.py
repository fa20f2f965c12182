"""Experiment orchestration: meta-training over a problem set, budget-matched
evaluation with paired seeds, schedule baselines, leave-one-out and
train/test-split protocols, ablations, and the formats of the result files.
The protocols return their results; the command line names and writes the files.

Outputs are byte-reproducible for a fixed (config, seed): floats are
written at 17 significant digits, rows are sorted before writing, and all
randomness flows from named integer seed sequences.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agent as qnet
from .agent import CheckpointMetadata, NetworkParams, ReplayBuffer, Transition
from .config import ConfigError, ExperimentConfig
from .cop import ConstrainedProblem, ProblemDefinitionError
from .env import STEP_COLUMNS, ActionSpace, EpsilonControlEnv, epsilon_from_action
from .lshade import episode_steps

BASELINES = ("static-eps", "scheduled-eps", "feasibility-rule", "untrained-agent")

# each ablation as the config change it makes to the full method
ABLATIONS = {"no-state": {"mask_state": True},
             "aa": {"action_scheme": "linear-aa"}, "ca": {"action_scheme": "linear-ca"},
             "r1": {"reward_variant": "r1"}, "r2": {"reward_variant": "r2"},
             "r1r2": {"reward_variant": "r1r2"}, "no-train": {}}

METHOD_TRAINED = "trained-agent"

_STEP, _FES, _REWARD, _SCO = map(STEP_COLUMNS.index, ("step", "fes", "reward", "sco"))


class RunFailedError(RuntimeError):
    """One run or training episode raised; the message names its problem,
    dim and run (or epoch), and the original error is the cause."""


def _crc(name: str) -> int:
    return zlib.crc32(name.encode())


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng([p if isinstance(p, int) else _crc(str(p)) for p in parts])


@dataclass(eq=False)
class RunRecord:
    """One optimization run: identity and per-generation trace, one row of
    ``steps`` per generation in the columns of ``env.STEP_COLUMNS``.

    Two records are equal when their identities are and their ``steps``
    have the same dtype, shape and bytes: NaN equals NaN, -0.0 differs
    from 0.0, as in the result files."""

    problem: str
    dim: int
    method: str
    run: int
    steps: np.ndarray  # (steps, len(STEP_COLUMNS))

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        a, b = self.steps, other.steps
        return ((self.problem, self.dim, self.method, self.run, a.dtype, a.shape)
                == (other.problem, other.dim, other.method, other.run, b.dtype, b.shape)
                and a.tobytes() == b.tobytes())

    @property
    def final_sco(self) -> float:
        """The run's score after its last generation."""
        return float(self.steps[-1, _SCO])


@dataclass
class TrainResult:
    params: NetworkParams
    metadata: CheckpointMetadata
    episodes: list[dict]  # one row per training episode


# ---------------------------------------------------------------------------
# Training (meta-level loop)
# ---------------------------------------------------------------------------

def train(cfg: ExperimentConfig) -> TrainResult:
    """Train the controller over epochs x cfg.train_problems (or problems) x dims.

    Each episode is one ``_run`` whose policy acts epsilon-greedily, pushes the
    transition and, once the buffer holds a batch, makes one gradient-descent
    update; the target network is refreshed every ``qnet.TARGET_SYNC_PERIOD``
    gradient steps.  The learning rate follows the cosine schedule across epochs.
    Training that makes fewer transitions than one batch raises ConfigError.
    """
    names = cfg.train_problems or cfg.problems
    if not names:
        raise ConfigError("training requires a non-empty problem list")

    instances = [(name, dim, cfg.registry.lookup(name, dim)) for dim in cfg.dims for name in names]
    total_steps = cfg.epochs * sum(episode_steps(cfg.maxfes(d), cfg.pop_size, cfg.lpsr)
                                   for _, d, _ in instances)
    if total_steps < cfg.batch_size:
        raise ConfigError(f"training makes {total_steps} transitions, fewer than batch_size "
                          f"{cfg.batch_size}: no gradient step would run")

    params = _init_params(cfg)
    target = params.copy()
    buffer = ReplayBuffer(min(cfg.buffer_capacity, total_steps))  # never holds more
    actor_rng = _rng(cfg.seed, 103)

    agentbest: dict[tuple[str, int], float] = {}
    episodes: list[dict] = []
    meta_step = 0
    grad_steps = 0

    def learn(env: EpsilonControlEnv):
        nonlocal meta_step, grad_steps
        state = env.state[0]
        action = qnet.act_eps_greedy(lambda: qnet.forward(state, params), params.b2.size,
                                     qnet.explore_rate(meta_step, total_steps), actor_rng)
        record = env.step(action)
        next_state = state if env.terminal else env.state[0]  # no target reads a terminal one
        buffer.push(Transition(state, action, record[0, _REWARD], next_state, env.terminal))
        if len(buffer) >= cfg.batch_size:
            batch = buffer.sample(cfg.batch_size, actor_rng)
            _, grads = qnet.loss_and_grad(batch, params, target, qnet.DISCOUNT)
            qnet.sgd_step(params, grads, lr)
            grad_steps += 1
            if grad_steps % qnet.TARGET_SYNC_PERIOD == 0:
                qnet.sync_target(params, target)
        meta_step += 1
        return record

    for epoch in range(cfg.epochs):
        lr = qnet.cosine_lr(epoch, cfg)
        for k, (name, dim, problem) in enumerate(instances):
            env, steps = _run(cfg, [problem], [(cfg.seed, 105, epoch, k)],
                              agentbest.get((name, dim)), learn,
                              [f"training on {name} (dim {dim}, epoch {epoch})"])
            agentbest[(name, dim)] = float(env.f_agentbest[0])
            episodes.append({
                "epoch": epoch, "problem": name, "dim": dim, "steps": len(steps),
                # summed in step order: a pairwise np.sum rounds differently
                "return": sum(steps[:, 0, _REWARD].tolist(), 0.0),
            })

    best = min(agentbest.values())
    metadata = CheckpointMetadata(
        action_scheme=cfg.action_scheme,
        f_agentbest=best,
        seed=cfg.seed,
        epochs=cfg.epochs,
        extra={
            "problem_set_hash": _hash_instances(names, cfg.dims),
            "reward_variant": cfg.reward_variant,
            "lr_start": f"{qnet.LR_START:.17g}",
            "lr_end": f"{qnet.LR_END:.17g}",
            "discount": f"{qnet.DISCOUNT:.17g}",
        },
    )
    return TrainResult(params=params, metadata=metadata, episodes=episodes)


def _hash_instances(names: tuple[str, ...], dims: tuple[int, ...]) -> int:
    return zlib.crc32(";".join(f"{n}@{d}" for d in dims for n in names).encode())


# ---------------------------------------------------------------------------
# Single runs and evaluation
# ---------------------------------------------------------------------------

def _init_params(cfg: ExperimentConfig) -> NetworkParams:
    """The network every training run starts from, also the untrained baseline."""
    n_out = ActionSpace.for_scheme(cfg.action_scheme).n_actions
    return qnet.init_params(n_out=n_out, rng=_rng(cfg.seed, 101))


def _run(cfg: ExperimentConfig, problems: list[ConstrainedProblem], keys: list[tuple],
         f_agentbest: float | None, policy,
         what: list[str]) -> tuple[EpsilonControlEnv, np.ndarray]:
    """Reset an env with one run per seed key of ``keys``, run r on ``problems[r]``
    drawing from ``_rng(*keys[r])``, and call ``policy(env)``, a meta-step returning
    its step record (R, len(STEP_COLUMNS)), until it is terminal; return the env and
    the records stacked (steps, R, len(STEP_COLUMNS)).  On a failure the runs are
    replayed one at a time, each on its problem from its seed key, and the first
    to fail alone is re-raised as RunFailedError naming its ``what[r]``."""
    try:
        env = EpsilonControlEnv(_stacked(problems), [_rng(*key) for key in keys], cfg,
                                cfg.maxfes(problems[0].dim), f_agentbest)
        env.reset()
        steps = []
        while not env.terminal:
            steps.append(policy(env))
    except Exception as exc:
        for one, key, label in zip(problems, keys if len(keys) > 1 else [], what):
            _run(cfg, [one], [key], f_agentbest, policy, [label])
        raise RunFailedError(f"{' / '.join(what)} failed: {exc}") from exc
    return env, np.array(steps)


def _stacked(problems: list[ConstrainedProblem]) -> ConstrainedProblem:
    """The problem of one run per entry of ``problems``, which share their dim,
    constraint layout and box: the problem itself when all runs share one, else
    one whose evaluator gives each problem its consecutive run-major rows in one
    call, and raises ProblemDefinitionError on rows that do not split into
    equal per-run blocks."""
    blocks = [list(runs) for _, runs in itertools.groupby(problems, key=id)]  # one per problem
    if len(blocks) == 1:
        return problems[0]
    name = " + ".join(block[0].name for block in blocks)

    def evaluator(X):
        n, extra = divmod(len(X), len(problems))
        if extra:
            raise ProblemDefinitionError(f"{name}: {len(X)} rows do not split into "
                                         f"{len(problems)} equal per-run blocks")
        out, b = [], 0
        for block in blocks:
            a, b = b, b + len(block) * n
            out.append(block[0].evaluator(X[a:b]))
        return tuple(map(np.concatenate, zip(*out)))  # f, C

    return dataclasses.replace(problems[0], name=name, evaluator=evaluator, feasible_point=None)


def _evaluate_policy(cfg: ExperimentConfig, policy, method: str,
                     f_agentbest: float | None = None) -> list[RunRecord]:
    """cfg.runs paired-seed, budget-matched runs per (problem, dim) of
    cfg.test_problems (or problems), run r starting from ``_rng(cfg.seed, dim, r,
    name)``, in (dim, problem, run) order.  A dim's problems of one constraint
    layout and box, in order of first appearance, run as one ``_run`` of ``policy``,
    one problem's runs after another's."""
    names = cfg.test_problems or cfg.problems
    if not names:
        raise ConfigError("evaluation requires a non-empty problem list")
    records = []
    runs = range(cfg.runs)
    for dim in cfg.dims:
        problems = {name: cfg.registry.lookup(name, dim) for name in names}
        groups: dict[tuple, list[tuple[str, int]]] = {}
        for name, p in problems.items():
            groups.setdefault((p.n_ineq, p.n_eq, p.lower.tobytes(), p.upper.tobytes()),
                              []).extend((name, run) for run in runs)
        steps = {}
        for group in groups.values():
            _, stacked = _run(cfg, [problems[name] for name, _ in group],
                              [(cfg.seed, dim, run, name) for name, run in group], f_agentbest,
                              policy, [f"{method} on {name} (dim {dim}, run {run})"
                                       for name, run in group])
            steps.update(zip(group, stacked.transpose(1, 0, 2)))
        records += [RunRecord(problem=name, dim=dim, method=method, run=run,
                              steps=steps[name, run]) for name in names for run in runs]
    return records


def _greedy_policy(params: NetworkParams):
    def policy(env: EpsilonControlEnv):
        return env.step(np.argmax(qnet.forward_batch(env.state, params), axis=1))
    return policy


def _baseline_policy(cfg: ExperimentConfig, kind: str):
    """(method label, one-meta-step policy) of a schedule baseline."""
    if kind == "feasibility-rule":
        def policy(env: EpsilonControlEnv):
            return env.step_with_epsilon(np.zeros(env.problem.n_constraints), 0.0)
        return kind, policy
    if kind == "static-eps":
        def policy(env: EpsilonControlEnv):
            eps = epsilon_from_action(cfg.static_level, env.eps_base)
            return env.step_with_epsilon(eps, cfg.static_level)
        return f"static-eps[{cfg.static_level:g}]", policy

    def policy(env: EpsilonControlEnv):  # scheduled-eps
        factor = (1.0 - env.stats.budget.fes / env.stats.budget.maxfes) ** cfg.sched_power
        return env.step_with_epsilon(env.eps_base.values * factor, factor)
    return f"scheduled-eps[{cfg.sched_power:g}]", policy


def evaluate(cfg: ExperimentConfig, params: NetworkParams,
             metadata: CheckpointMetadata | None = None,
             method: str = METHOD_TRAINED) -> list[RunRecord]:
    """Greedy-policy evaluation: cfg.runs paired-seed runs per (problem, dim)."""
    if metadata is not None:
        for what, trained, wanted in (
                ("scheme", metadata.action_scheme, cfg.action_scheme),
                ("reward variant", metadata.extra.get("reward_variant"), cfg.reward_variant)):
            if trained is not None and trained != wanted:
                raise ConfigError(f"checkpoint was trained with {what} {trained!r}, "
                                  f"config requests {wanted!r}")
    return _evaluate_policy(cfg, _greedy_policy(params), method,
                            metadata.f_agentbest if metadata is not None else None)


def run_baseline(cfg: ExperimentConfig, name: str) -> list[RunRecord]:
    """Evaluate one epsilon-schedule baseline under the shared seeds."""
    if name not in BASELINES:
        raise ConfigError(f"unknown baseline {name!r}; valid: {', '.join(BASELINES)}")
    if name == "untrained-agent":
        return evaluate(cfg, _init_params(cfg), method=name)
    method, policy = _baseline_policy(cfg, name)
    return _evaluate_policy(cfg, policy, method)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def split_protocol(cfg: ExperimentConfig,
                   method: str = METHOD_TRAINED) -> tuple[TrainResult, list[RunRecord]]:
    """Train on cfg.train_problems, evaluate as ``method`` on the disjoint
    cfg.test_problems."""
    if not cfg.train_problems or not cfg.test_problems:
        raise ConfigError("train_problems and test_problems must be non-empty")
    overlap = set(cfg.train_problems) & set(cfg.test_problems)
    if overlap:
        raise ConfigError(f"train/test lists overlap: {sorted(overlap)}")
    result = train(cfg)
    leaked = sorted({row["problem"] for row in result.episodes} & set(cfg.test_problems))
    if leaked:
        raise RuntimeError(f"held-out problems leaked into training: {leaked}")
    return result, evaluate(cfg, result.params, result.metadata, method=method)


def leave_one_out(cfg: ExperimentConfig) -> dict[str, tuple[TrainResult, list[RunRecord]]]:
    """For each problem, in the order of cfg.problems: the split protocol
    trained on the rest and evaluated on the held-out one."""
    names = cfg.problems
    if len(names) < 2:
        raise ConfigError("leave-one-out needs at least two problems")
    return {held_out: split_protocol(dataclasses.replace(
                cfg, train_problems=[n for n in names if n != held_out],
                test_problems=[held_out]))
            for held_out in names}


def ablate(cfg: ExperimentConfig,
           variants: list[str]) -> tuple[list[RunRecord], dict[str, list[RunRecord]]]:
    """The full method's records, trained and evaluated once, and each listed
    ablation's records, in list order; the list is checked before anything trains.

    no-state evaluates the full method's weights with masked constraint
    features; aa/ca retrain under the linear schemes; r1/r2/r1r2 retrain
    with the reduced rewards; no-train evaluates a freshly initialized
    network.  All variants share evaluation seeds with the full method.
    """
    if not variants:
        raise ConfigError(f"no ablation given; valid: {', '.join(ABLATIONS)}")
    for k, variant in enumerate(variants):
        if variant not in ABLATIONS:
            raise ConfigError(f"unknown ablation {variant!r}; valid: {', '.join(ABLATIONS)}")
        if variant in variants[:k]:
            raise ConfigError(f"ablations list {variant!r} more than once")
    full, records = split_protocol(cfg)
    ablated = {}
    for variant in variants:
        alt = dataclasses.replace(cfg, **ABLATIONS[variant])
        if variant == "no-state":
            ablated[variant] = evaluate(alt, full.params, full.metadata, method=variant)
        elif variant == "no-train":
            ablated[variant] = evaluate(alt, _init_params(alt), method=variant)
        else:
            ablated[variant] = split_protocol(alt, variant)[1]
    return records, ablated


# ---------------------------------------------------------------------------
# Aggregation and persistence
# ---------------------------------------------------------------------------

def aggregate_table(records: list[RunRecord]) -> list[dict]:
    """mean / std / min of final score per (problem, dim, method)."""
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.problem, r.dim, r.method), []).append(r.final_sco)
    rows = []
    for (problem, dim, method), scores in sorted(groups.items()):
        arr = np.array(scores)
        rows.append({
            "problem": problem, "dim": dim, "method": method,
            "mean": float(arr.mean()), "std": float(arr.std()),
            "min": float(arr.min()), "runs": arr.size,
        })
    return rows


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_table_csv(rows: list[dict], path) -> None:
    header = ["problem", "dim", "method", "mean", "std", "min", "runs"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in header))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_jsonl(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


_RECORD_KEYS = ("problem", "dim", "method", "run")  # RunRecord's identity, in field order

# each key's value types and their name in a message; other trace values are numbers
_KINDS = {**dict.fromkeys(("problem", "method"), ((str,), "a string")),
          **dict.fromkeys(("dim", "run", "step", "fes"), ((int,), "an int")),
          "sco": ((int, float), "a finite number")}


def write_records_jsonl(records: list[RunRecord], path) -> None:
    """Per-generation trace lines, one JSON object per meta-step, step and fes
    as ints; the file is written once."""
    lines = []
    for r in records:  # the run's identity once, spliced before each step's "{"
        head = json.dumps({k: getattr(r, k) for k in _RECORD_KEYS})[:-1] + ", "
        lines.extend(head + json.dumps(dict(zip(STEP_COLUMNS, (int(step), int(fes), *rest))))[1:]
                     + "\n" for step, fes, *rest in r.steps.tolist())
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_records_jsonl(path) -> list[RunRecord]:
    """Rebuild RunRecords from a trace file written by write_records_jsonl; a line
    that is not such a trace raises ValueError naming its file, line and key."""
    runs: dict[tuple, list[list]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path} line {lineno}: not a JSON object")
            for k in (*_RECORD_KEYS, *STEP_COLUMNS):  # type() is exact, so a bool is no int
                if k not in row:
                    raise ValueError(f"{path} line {lineno}: missing key {k!r}")
                types, name = _KINDS.get(k, ((int, float), "a number"))
                if type(row[k]) not in types or (k == "sco" and not math.isfinite(row[k])):
                    raise ValueError(f"{path} line {lineno}: {k} must be {name}, got {row[k]!r}")
                if type(row[k]) is int and k in STEP_COLUMNS and not abs(row[k]) < 2**53:
                    raise ValueError(f"{path} line {lineno}: {k} must be below 2**53 in "
                                     f"magnitude, the float record's exact range, got {row[k]!r}")
            runs.setdefault(tuple(row[k] for k in _RECORD_KEYS), []).append(
                [row[k] for k in STEP_COLUMNS])
    return [RunRecord(*key, np.array(steps, dtype=float)) for key, steps in runs.items()]


def export_curves(records: list[RunRecord], out_dir, stem: str = "curves") -> Path:
    """Write per-problem normalized mean curves; returns the CSV's path.

    Normalization pools every intermediate and final score of a (problem,
    dim) across all methods and runs, then min-max rescales; a zero range
    maps everything to zero.  The CSV holds one row per (problem, dim,
    method, step) with the run-mean of the normalized score.
    """
    if not records:
        raise ValueError("no records to export")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pooled: dict[tuple, list[float]] = {}
    for r in records:
        pooled.setdefault((r.problem, r.dim), []).extend(r.steps[:, _SCO].tolist())
    bounds = {key: (min(scores), max(scores)) for key, scores in pooled.items()}

    series: dict[tuple, dict[int, list[float]]] = {}
    fes_of: dict[tuple, int] = {}
    for r in records:
        lo, hi = bounds[(r.problem, r.dim)]
        span = hi - lo
        for step, fes, sco in r.steps[:, [_STEP, _FES, _SCO]].tolist():
            norm = (sco - lo) / span if span > 0 else 0.0
            key = (r.problem, r.dim, r.method)
            series.setdefault(key, {}).setdefault(int(step), []).append(norm)
            fes_of[(r.problem, r.dim, int(step))] = int(fes)

    lines = ["problem,dim,method,step,fes,norm_sco"]
    for (problem, dim, method) in sorted(series):
        for step in sorted(series[(problem, dim, method)]):
            vals = series[(problem, dim, method)][step]
            fes = fes_of[(problem, dim, step)]
            lines.append(
                f"{problem},{dim},{method},{step},{fes},{_fmt(float(np.mean(vals)))}"
            )
    csv_path = out / f"{stem}.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return csv_path

