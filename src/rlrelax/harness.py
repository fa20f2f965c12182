"""Experiment orchestration: meta-training over a problem set, budget-matched
evaluation with paired seeds, schedule baselines, leave-one-out and
train/test-split protocols, ablations, and deterministic result files.

Outputs are byte-reproducible for a fixed (config, seed): floats are
written at 17 significant digits, rows are sorted before writing, and all
randomness flows from named integer seed sequences.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import agent as qnet
from .agent import CheckpointMetadata, NetworkParams, ReplayBuffer
from .config import ConfigError, ExperimentConfig
from .env import ActionSpace, EpsilonControlEnv, epsilon_from_action
from .lshade import episode_steps
from .problems import ProblemRegistry, UnknownProblemError, load_shift_table

BASELINES = ("static-eps", "scheduled-eps", "feasibility-rule", "untrained-agent")

# each ablation as the config change it makes to the full method
ABLATIONS = {"no-state": {"mask_state": True},
             "aa": {"action_scheme": "linear-aa"}, "ca": {"action_scheme": "linear-ca"},
             "r1": {"reward_variant": "r1"}, "r2": {"reward_variant": "r2"},
             "r1r2": {"reward_variant": "r1r2"}, "no-train": {}}
ABLATION_VARIANTS = tuple(ABLATIONS)

METHOD_TRAINED = "trained-agent"


class RunFailedError(RuntimeError):
    """One run or training episode raised; the message names its problem,
    dim and run (or epoch), and the original error is the cause."""


def _crc(name: str) -> int:
    return zlib.crc32(name.encode())


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng([p if isinstance(p, int) else _crc(str(p)) for p in parts])


def problem_registry(cfg: ExperimentConfig) -> ProblemRegistry:
    """The registry over the config's shift file, once every name in the
    config's problem lists resolves at every dim; ConfigError otherwise."""
    try:
        registry = ProblemRegistry(load_shift_table(cfg.shift_file) if cfg.shift_file else None)
        for name in dict.fromkeys(cfg.problems + cfg.train_problems + cfg.test_problems):
            for dim in cfg.dims:
                registry.lookup(name, dim)
    except (UnknownProblemError, ValueError) as exc:  # a bad shift file is a ValueError
        raise ConfigError(str(exc)) from None
    return registry


@dataclass
class RunRecord:
    """One optimization run: identity, final score, per-generation trace."""

    problem: str
    dim: int
    method: str
    run: int
    final_sco: float
    steps: list[dict] = field(default_factory=list)


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
    update; the target network is refreshed every ``target_sync_period``
    gradient steps.  The learning rate follows the cosine schedule across epochs.
    """
    cfg.validate()
    names = cfg.train_problems or cfg.problems
    if not names:
        raise ConfigError("training requires a non-empty problem list")
    registry = problem_registry(cfg)

    instances = [(name, dim) for dim in cfg.dims for name in names]
    total_steps = cfg.epochs * sum(episode_steps(cfg.maxfes(d), cfg.pop_size, cfg.lpsr)
                                   for _, d in instances)

    params = _init_params(cfg)
    target = params.copy()
    buffer = ReplayBuffer(cfg.buffer_capacity)
    actor_rng = _rng(cfg.seed, 103)

    agentbest: dict[tuple[str, int], float] = {}
    episodes: list[dict] = []
    meta_step = 0
    grad_steps = 0

    def learn(env: EpsilonControlEnv):
        nonlocal meta_step, grad_steps
        q = qnet.forward(env.state, params)
        action = qnet.act_eps_greedy(q, qnet.explore_rate(meta_step, total_steps, cfg), actor_rng)
        tr, info = env.step(action)
        buffer.push(tr)
        if len(buffer) >= cfg.batch_size:
            batch = buffer.sample(cfg.batch_size, actor_rng)
            _, grads = qnet.loss_and_grad(batch, params, target, cfg.discount)
            qnet.sgd_step(params, grads, lr)
            grad_steps += 1
            if grad_steps % cfg.target_sync_period == 0:
                qnet.sync_target(params, target)
        meta_step += 1
        return tr, info

    for epoch in range(cfg.epochs):
        lr = qnet.cosine_lr(epoch, cfg)
        for k, (name, dim) in enumerate(instances):
            env, steps = _run(cfg, registry, name, dim, _rng(cfg.seed, 105, epoch, k),
                              agentbest.get((name, dim)), learn,
                              f"training on {name} (dim {dim}, epoch {epoch})")
            agentbest[(name, dim)] = env.f_agentbest
            episodes.append({
                "epoch": epoch, "problem": name, "dim": dim, "steps": len(steps),
                "return": sum((step["reward"] for step in steps), 0.0),
            })

    best = min(agentbest.values()) if agentbest else float("inf")
    metadata = CheckpointMetadata(
        action_scheme=cfg.action_scheme,
        f_agentbest=best,
        seed=cfg.seed,
        epochs=cfg.epochs,
        extra={
            "problem_set_hash": _hash_instances(names, cfg.dims),
            "reward_variant": cfg.reward_variant,
            "lr_start": f"{cfg.lr_start:.17g}",
            "lr_end": f"{cfg.lr_end:.17g}",
            "discount": f"{cfg.discount:.17g}",
        },
    )
    return TrainResult(params=params, metadata=metadata, episodes=episodes)


def _hash_instances(names: list[str], dims: list[int]) -> int:
    return zlib.crc32(";".join(f"{n}@{d}" for d in dims for n in names).encode())


# ---------------------------------------------------------------------------
# Single runs and evaluation
# ---------------------------------------------------------------------------

def _init_params(cfg: ExperimentConfig) -> NetworkParams:
    """The network every training run starts from, also the untrained baseline."""
    n_out = ActionSpace.for_scheme(cfg.action_scheme).n_actions
    return qnet.init_params(n_out=n_out, rng=_rng(cfg.seed, 101))


def _run(cfg: ExperimentConfig, registry: ProblemRegistry, name: str, dim: int,
         rng: np.random.Generator, f_agentbest: float | None, policy,
         what: str) -> tuple[EpsilonControlEnv, list[dict]]:
    """Reset an env on ``name`` at ``dim`` and call ``policy(env)``, one meta-step
    returning (transition, info), until it is terminal; return the env and the
    infos.  A failure is re-raised as RunFailedError naming ``what``."""
    try:
        env = EpsilonControlEnv(
            registry.lookup(name, dim), rng,
            n_pop=cfg.pop_size, maxfes=cfg.maxfes(dim),
            action_space=ActionSpace.for_scheme(cfg.action_scheme),
            delta=cfg.delta, delta_acc=cfg.delta_acc,
            reward_variant=cfg.reward_variant, mask_state=cfg.mask_state,
            lpsr=cfg.lpsr, f_agentbest=f_agentbest,
        )
        env.reset()
        steps = []
        while not env.terminal:
            steps.append(policy(env)[1])
    except Exception as exc:
        raise RunFailedError(f"{what} failed: {exc}") from exc
    return env, steps


def _evaluate_policy(cfg: ExperimentConfig, policy, method: str,
                     f_agentbest: float | None = None) -> list[RunRecord]:
    """cfg.runs paired-seed, budget-matched runs per (problem, dim) of
    cfg.test_problems (or problems), each one ``_run`` of ``policy``."""
    names = cfg.test_problems or cfg.problems
    if not names:
        raise ConfigError("evaluation requires a non-empty problem list")
    registry = problem_registry(cfg)
    records = []
    for dim in cfg.dims:
        for name in names:
            for run in range(cfg.runs):
                _, steps = _run(cfg, registry, name, dim, _rng(cfg.seed, dim, run, name),
                                f_agentbest, policy, f"{method} on {name} (dim {dim}, run {run})")
                records.append(RunRecord(problem=name, dim=dim, method=method, run=run,
                                         final_sco=steps[-1]["sco"], steps=steps))
    return records


def _greedy_policy(params: NetworkParams):
    def policy(env: EpsilonControlEnv):
        return env.step(int(np.argmax(qnet.forward(env.state, params))))
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
    cfg.validate()
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
    cfg.validate()
    if name not in BASELINES:
        raise ConfigError(f"unknown baseline {name!r}; valid: {', '.join(BASELINES)}")
    if name == "untrained-agent":
        return evaluate(cfg, _init_params(cfg), method=name)
    method, policy = _baseline_policy(cfg, name)
    return _evaluate_policy(cfg, policy, method)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def _train_and_evaluate(cfg: ExperimentConfig,
                        method: str) -> tuple[TrainResult, list[RunRecord]]:
    """Train on cfg.train_problems, evaluate on the disjoint cfg.test_problems."""
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


def leave_one_out(cfg: ExperimentConfig, out_dir) -> list[RunRecord]:
    """For each problem: train on the rest, evaluate on the held-out one."""
    cfg.validate()
    names = cfg.problems
    if len(names) < 2:
        raise ConfigError("leave-one-out needs at least two problems")
    folds = [(held_out, *_train_and_evaluate(
                 dataclasses.replace(cfg, train_problems=[n for n in names if n != held_out],
                                     test_problems=[held_out]), METHOD_TRAINED))
             for held_out in names]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_records: list[RunRecord] = []
    train_log: list[dict] = []
    for held_out, result, records in folds:
        train_log.extend({"holdout": held_out, **row} for row in result.episodes)
        qnet.save_checkpoint(result.params, result.metadata,
                             out / f"checkpoint_{_safe_name(held_out)}.txt")
        all_records.extend(records)
    write_records_jsonl(all_records, out / "records.jsonl")
    write_jsonl(train_log, out / "train_log.jsonl")
    write_table_csv(aggregate_table(all_records), out / "loo_results.csv")
    return all_records


def split_protocol(cfg: ExperimentConfig, out_dir) -> list[RunRecord]:
    """Train once on cfg.train_problems, evaluate on the disjoint cfg.test_problems."""
    cfg.validate()
    result, records = _train_and_evaluate(cfg, METHOD_TRAINED)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    qnet.save_checkpoint(result.params, result.metadata, out / "checkpoint.txt")
    write_records_jsonl(records, out / "records.jsonl")
    write_jsonl(result.episodes, out / "train_log.jsonl")
    write_table_csv(aggregate_table(records), out / "split_results.csv")
    return records


def ablate(cfg: ExperimentConfig, variant: str, out_dir) -> list[RunRecord]:
    """Compare the full method against one ablated configuration.

    no-state evaluates the full method's weights with masked constraint
    features; aa/ca retrain under the linear schemes; r1/r2/r1r2 retrain
    with the reduced rewards; no-train evaluates a freshly initialized
    network.  All variants share evaluation seeds with the full method.
    """
    cfg.validate()
    if variant not in ABLATIONS:
        raise ConfigError(
            f"unknown ablation {variant!r}; valid: {', '.join(ABLATION_VARIANTS)}"
        )
    full, records = _train_and_evaluate(cfg, METHOD_TRAINED)
    alt = dataclasses.replace(cfg, **ABLATIONS[variant])
    if variant == "no-state":
        records += evaluate(alt, full.params, full.metadata, method=variant)
    elif variant == "no-train":
        records += evaluate(alt, _init_params(alt), method=variant)
    else:
        records += _train_and_evaluate(alt, variant)[1]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_records_jsonl(records, out / "records.jsonl")
    write_table_csv(aggregate_table(records), out / f"ablate_{variant}.csv")
    return records


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


_TRACE_KEYS = ("step", "fes", "level", "eps_min", "eps_mean", "eps_max", "reward", "sco")


def write_records_jsonl(records: list[RunRecord], path) -> None:
    """Per-generation trace lines, one JSON object per meta-step."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            for s in r.steps:
                fh.write(json.dumps({"problem": r.problem, "dim": r.dim, "method": r.method,
                                     "run": r.run, **{k: s[k] for k in _TRACE_KEYS}}) + "\n")


def load_records_jsonl(path) -> list[RunRecord]:
    """Rebuild RunRecords from a trace file written by write_records_jsonl."""
    runs: dict[tuple, RunRecord] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            key = (row["problem"], row["dim"], row["method"], row["run"])
            if key not in runs:
                runs[key] = RunRecord(problem=row["problem"], dim=row["dim"],
                                      method=row["method"], run=row["run"],
                                      final_sco=row["sco"])
            runs[key].steps.append(row)
            runs[key].final_sco = row["sco"]
    return list(runs.values())


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
        pooled.setdefault((r.problem, r.dim), []).extend(s["sco"] for s in r.steps)
    bounds = {key: (min(scores), max(scores)) for key, scores in pooled.items()}

    series: dict[tuple, dict[int, list[float]]] = {}
    fes_of: dict[tuple, int] = {}
    for r in records:
        lo, hi = bounds[(r.problem, r.dim)]
        span = hi - lo
        for s in r.steps:
            norm = (s["sco"] - lo) / span if span > 0 else 0.0
            key = (r.problem, r.dim, r.method)
            series.setdefault(key, {}).setdefault(s["step"], []).append(norm)
            fes_of[(r.problem, r.dim, s["step"])] = s["fes"]

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


def _safe_name(name: str) -> str:
    return name.replace("/", "_")
