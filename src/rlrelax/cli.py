"""Command-line entry point.

Verbs: train, evaluate, baseline, loo, split, ablate, export-curves.
Exit codes: 0 on success, 2 on configuration errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import agent as qnet
from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    BASELINES,
    ABLATION_VARIANTS,
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

    p = sub.add_parser("ablate", help="run one ablation against the full method")
    common(p)
    p.add_argument("--variant", required=True,
                   help=f"one of: {', '.join(ABLATION_VARIANTS)}")

    p = sub.add_parser("export-curves", help="normalized curves from records.jsonl")
    common(p)
    return parser


def _load_cfg(args) -> ExperimentConfig:
    try:
        cfg = load_config(args.config)
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from None
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.runs is not None:
        cfg.runs = args.runs
    if args.dims is not None:
        try:
            cfg.dims = [int(v) for v in args.dims.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"--dims: {exc}") from None
    cfg.validate()
    return cfg


def _dispatch(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if args.verb == "train":
        result = train(cfg)
        ckpt = out / "checkpoint.txt"
        qnet.save_checkpoint(result.params, result.metadata, ckpt)
        write_jsonl(result.episodes, out / "train_log.jsonl")
        print(f"trained {result.metadata.epochs} epochs over "
              f"{len(result.episodes)} episodes -> {ckpt}")

    elif args.verb == "evaluate":
        params, metadata = qnet.load_checkpoint(args.checkpoint)
        records = evaluate(cfg, params, metadata)
        write_records_jsonl(records, out / "records.jsonl")
        write_table_csv(aggregate_table(records), out / "results.csv")
        print(f"evaluated {len(records)} runs -> {out / 'results.csv'}")

    elif args.verb == "baseline":
        records = run_baseline(cfg, args.name)
        write_records_jsonl(records, out / f"records_{args.name}.jsonl")
        write_table_csv(aggregate_table(records), out / f"baseline_{args.name}.csv")
        print(f"baseline {args.name}: {len(records)} runs -> "
              f"{out / f'baseline_{args.name}.csv'}")

    elif args.verb == "loo":
        records = leave_one_out(cfg, out)
        print(f"leave-one-out: {len(records)} runs -> {out / 'loo_results.csv'}")

    elif args.verb == "split":
        records = split_protocol(cfg, cfg.train_problems, cfg.test_problems, out)
        print(f"split: {len(records)} runs -> {out / 'split_results.csv'}")

    elif args.verb == "ablate":
        records = ablate(cfg, args.variant, out)
        print(f"ablate {args.variant}: {len(records)} runs -> "
              f"{out / f'ablate_{args.variant}.csv'}")

    elif args.verb == "export-curves":
        records_path = out / "records.jsonl"
        if not records_path.exists():
            raise ConfigError(f"no records file at {records_path}; run evaluate first")
        records = load_records_jsonl(records_path)
        jsonl_path, csv_path = export_curves(records, out)
        print(f"curves -> {csv_path}")

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
