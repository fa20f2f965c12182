"""Command-line entry point.

Verbs: train, evaluate, baseline, loo, split, ablate, export-curves; ablate
trains the full method once for its whole comma-separated ``--variant`` list.
Exit codes: 0 on success, 2 on configuration errors, 3 on runtime failures.
A verb creates its output directory only once it has results to write.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import agent as qnet
from .config import ConfigError, ExperimentConfig, load_config, parse_list, parse_value
from .harness import (
    ABLATIONS,
    BASELINES,
    RunRecord,
    TrainResult,
    aggregate_table,
    ablate,
    evaluate,
    export_curves,
    leave_one_out,
    load_records_jsonl,
    run_baseline,
    split_protocol,
    train,
    write_records_jsonl,
    write_table_csv,
    write_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlrelax",
        description="Learned epsilon-relaxation control for constrained "
                    "differential evolution under tight evaluation budgets.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the config output directory")
        p.add_argument("--runs", type=int, help="override the run count")
        p.add_argument("--dims", help="override dims, comma-separated")

    p = sub.add_parser("train", help="train a controller on the config's problems")
    common(p)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("baseline", help="run one schedule baseline")
    common(p)
    p.add_argument("--name", required=True, help=f"one of: {', '.join(BASELINES)}")

    p = sub.add_parser("loo", help="leave-one-out protocol over the problem list")
    common(p)

    p = sub.add_parser("split", help="train/test split protocol")
    common(p)

    p = sub.add_parser("ablate", help="run ablations against the full method")
    common(p)
    p.add_argument("--variant", required=True,
                   help=f"comma-separated, each once, of: {', '.join(ABLATIONS)}")

    p = sub.add_parser("export-curves", help="normalized curves from records.jsonl")
    common(p)
    return parser


def _load_cfg(args) -> ExperimentConfig:
    """The config file's settings with the flags applied, checked once."""
    flags = {"seed": args.seed, "out_dir": args.out, "runs": args.runs}
    if args.dims is not None:
        try:
            flags["dims"] = parse_value("dims", args.dims)
        except ValueError as exc:
            raise ConfigError(f"--dims: {exc}") from None
    return load_config(args.config, **{k: v for k, v in flags.items() if v is not None})


def _safe_name(name: str) -> str:
    return name.replace("/", "_")


def _write_results(out: Path, checkpoints: dict[str, TrainResult] | None = None,
                   train_log: list[dict] | None = None, records: list[RunRecord] | None = None,
                   tables: dict[str, list[RunRecord]] | None = None,
                   records_file: str = "records.jsonl") -> list[Path]:
    """Create ``out`` and write one verb's result files into it: the named
    checkpoints, the training log, the records, and each named table of the
    aggregate of its records; returns the tables' paths."""
    out.mkdir(parents=True, exist_ok=True)
    for name, result in (checkpoints or {}).items():
        qnet.save_checkpoint(result.params, result.metadata, out / name)
    if train_log is not None:
        write_jsonl(train_log, out / "train_log.jsonl")
    if records is not None:
        write_records_jsonl(records, out / records_file)
    for name, rows in (tables or {}).items():
        write_table_csv(aggregate_table(rows), out / name)
    return [out / name for name in tables or {}]


def _dispatch(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)

    if args.verb == "train":
        result = train(cfg)
        _write_results(out, {"checkpoint.txt": result}, result.episodes)
        print(f"trained {result.metadata.epochs} epochs over "
              f"{len(result.episodes)} episodes -> {out / 'checkpoint.txt'}")

    elif args.verb == "evaluate":
        records = evaluate(cfg, *qnet.load_checkpoint(args.checkpoint))
        (table,) = _write_results(out, records=records, tables={"results.csv": records})
        print(f"evaluated {len(records)} runs -> {table}")

    elif args.verb == "baseline":
        records = run_baseline(cfg, args.name)
        (table,) = _write_results(out, records=records,
                                  tables={f"baseline_{args.name}.csv": records},
                                  records_file=f"records_{args.name}.jsonl")
        print(f"baseline {args.name}: {len(records)} runs -> {table}")

    elif args.verb == "loo":
        folds = leave_one_out(cfg)
        records = [r for _, fold in folds.values() for r in fold]
        (table,) = _write_results(
            out, {f"checkpoint_{_safe_name(n)}.txt": result for n, (result, _) in folds.items()},
            [{"holdout": n, **row} for n, (result, _) in folds.items() for row in result.episodes],
            records, {"loo_results.csv": records})
        print(f"leave-one-out: {len(records)} runs -> {table}")

    elif args.verb == "split":
        result, records = split_protocol(cfg)
        (table,) = _write_results(out, {"checkpoint.txt": result}, result.episodes, records,
                                  {"split_results.csv": records})
        print(f"split: {len(records)} runs -> {table}")

    elif args.verb == "ablate":
        full, ablated = ablate(cfg, parse_list(args.variant))
        tables = _write_results(out, records=full + [r for rs in ablated.values() for r in rs],
                                tables={f"ablate_{v}.csv": full + rs for v, rs in ablated.items()})
        for (variant, rs), table in zip(ablated.items(), tables):
            print(f"ablate {variant}: {len(full) + len(rs)} runs -> {table}")

    elif args.verb == "export-curves":
        records_path = out / "records.jsonl"
        if not records_path.exists():
            raise ConfigError(f"no records file at {records_path}; run evaluate first")
        print(f"curves -> {export_curves(load_records_jsonl(records_path), out)}")

    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary reporting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
