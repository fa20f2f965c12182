"""rlrelax benchmark: closed-loop workloads driven through the command line.

Run from the repository root:

    python3 bench/run.py --workload train-5x10d --seed 0 --seconds 20 --trace 0

Each workload is one process and one caller: it calls ``rlrelax.cli.main``
in-process on config files generated from ``--seed`` and starts the next
verb only after the previous one returns. One pass is the workload's verbs
back to back. After set-up, a criterion-9 determinism check and one
untimed warm-up pass, passes repeat until ``--seconds`` have been spent.
While a pass runs, a second thread samples a fixed reference kernel
(refkernel.py) on the same CPU, and the pass's CPU time is expressed in
kernel time, so that a slow stretch on a shared host cancels out;
end-to-end times are medians over the passes of these normalised times.
``--trace 1`` adds one pass with every module boundary wrapped (see
spans.py) and reports the per-layer metrics instead. The last line of
standard output is one JSON object; everything else (run metadata, spans,
failures) is written under ``.bench_out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the program and the reference-kernel thread, so that the kernel
# runs on the CPU whose speed it gauges.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import refkernel  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
FIXTURE = BENCH_DIR / "fixtures" / "checkpoint.txt"
FIXTURE_INFO = BENCH_DIR / "fixtures" / "checkpoint.json"
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"

SETUP_REPEATS = 3   # before the warm-up and before every timed pass
TRAIN_EPOCHS = 4   # per pass: 4 x 45 = 180 meta-steps, 117 of them with a TD update

TRAIN_SET = ["synthetic/sphere-linear/0", "synthetic/rastrigin-ring/1",
             "synthetic/ackley-ellipsoid/2", "synthetic/griewank-plane/3",
             "synthetic/schwefel-band/4"]
HELD_OUT = ["cec12", "cec14", "synthetic/rosenbrock-cubic/5", "synthetic/sphere-linear/9"]
LPSR_SET = ["cec12", "cec14", "synthetic/rosenbrock-cubic/5", "synthetic/griewank-plane/3"]

# The criterion-9 leave-one-out config (tests/test_acceptance.py); its seed is
# fixed so that one reference digest covers every benchmark seed.
CRITERION9 = dict(problems=TRAIN_SET[:3], dims=4, pop_size=20, maxfes_per_dim=20,
                  runs=2, seed=11, epochs=2, buffer_capacity=64, batch_size=8)


@dataclass(frozen=True)
class Workload:
    config: dict        # config keys; the seed comes from --seed
    verbs: tuple        # argv tails of the verbs run in one pass
    scored: str         # records file whose runs give the quality metrics
    warmup: dict        # config overrides for the shorter untimed warm-up pass


WORKLOADS = {
    "train-5x10d": Workload(
        config=dict(problems=TRAIN_SET, dims=10, pop_size=50, maxfes_per_dim=50,
                    epochs=TRAIN_EPOCHS, runs=2),
        verbs=(("train",),),
        scored="records.jsonl",  # greedy evaluation of the trained checkpoint
        warmup=dict(epochs=2),
    ),
    "eval-heldout-10d": Workload(
        config=dict(problems=HELD_OUT, dims=10, pop_size=50, maxfes_per_dim=50, runs=10),
        verbs=(("evaluate", "--checkpoint", str(FIXTURE)),
               ("baseline", "--name", "scheduled-eps")),
        scored="records.jsonl",
        warmup=dict(runs=1),
    ),
    "optimize-50d-lpsr": Workload(
        config=dict(problems=LPSR_SET, dims=50, pop_size=100, maxfes_per_dim=200,
                    runs=1, lpsr="true"),
        verbs=(("baseline", "--name", "scheduled-eps"),),
        scored="records_scheduled-eps.jsonl",
        warmup=dict(maxfes_per_dim=40),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, fixture or spec)."""


def config_text(settings: dict) -> str:
    lines = []
    for key, value in settings.items():
        if isinstance(value, list):
            value = ", ".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_dir(path: Path) -> str:
    """sha256 over the names and bytes of every file in ``path``, sorted by name."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.iterdir() if p.is_file()):
        data = f.read_bytes()
        h.update(f"{f.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


class Ledger:
    """Counts operations; a failed one keeps its checks and context."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []

    def op(self, failed_checks: list[str], **context) -> None:
        self.attempted += 1
        if failed_checks:
            self.failures.append({"workload": self.workload, **context,
                                  "checks": failed_checks})


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_program():
    """Import rlrelax afresh from this checkout's src/ (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "rlrelax" or n.startswith("rlrelax.")]:
        del sys.modules[name]
    cli = importlib.import_module("rlrelax.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"rlrelax was imported from {cli.__file__}, not from {SRC}")
    return cli


def verify_fixture(agent, scratch: Path) -> list[str]:
    """The committed checkpoint matches its recorded sha256 and round-trips bit-exactly."""
    info = json.loads(FIXTURE_INFO.read_text(encoding="utf-8"))
    failed = []
    if sha256_file(FIXTURE) != info["sha256"]:
        failed.append("fixture sha256 differs from checkpoint.json")
    params, metadata = agent.load_checkpoint(FIXTURE)
    copy = scratch / "fixture_roundtrip.txt"
    agent.save_checkpoint(params, metadata, copy)
    if copy.read_bytes() != FIXTURE.read_bytes():
        failed.append("fixture load -> save is not byte-identical")
    return failed


def set_up(workload: Workload, seed: int, out: Path):
    """Import the program, write the configs, verify the fixture."""
    cli = import_program()
    cfg = out / "workload.cfg"
    cfg.write_text(config_text({**workload.config, "seed": seed}), encoding="utf-8")
    warm_cfg = out / "warmup.cfg"
    warm_cfg.write_text(config_text({**workload.config, **workload.warmup, "seed": seed}),
                        encoding="utf-8")
    c9 = out / "criterion9.cfg"
    c9.write_text(config_text(CRITERION9), encoding="utf-8")
    fixture_failed = verify_fixture(sys.modules["rlrelax.agent"], out)
    return cli, cfg, warm_cfg, c9, fixture_failed


# ---------------------------------------------------------------------------
# Passes and their outputs
# ---------------------------------------------------------------------------

def run_verbs(cli, verbs, cfg: Path, out_dir: Path) -> tuple[int, list[int]]:
    """Run verbs back to back in this process; returns (elapsed ns, exit codes)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = []
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(io.StringIO()):
        for verb in verbs:
            codes.append(cli.main([verb[0], "--config", str(cfg), "--out", str(out_dir),
                                   *verb[1:]]))
    return time.perf_counter_ns() - t0, codes


def read_runs(path: Path) -> dict[tuple, list[dict]]:
    """records.jsonl lines grouped by (problem, dim, method, run), in file order."""
    runs: dict[tuple, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            runs.setdefault((row["problem"], row["dim"], row["method"], row["run"]),
                            []).append(row)
    return runs


def check_runs(ledger: Ledger, runs: dict, maxfes_per_dim: int, **context) -> None:
    """Budget consumed exactly, and every score and epsilon finite, per run."""
    for (problem, dim, method, run), steps in runs.items():
        failed = []
        if steps[-1]["fes"] != maxfes_per_dim * dim:
            failed.append(f"last fes {steps[-1]['fes']} != maxfes {maxfes_per_dim * dim}")
        if not all(math.isfinite(s[k]) for s in steps
                   for k in ("sco", "eps_min", "eps_mean", "eps_max")):
            failed.append("non-finite sco or epsilon")
        ledger.op(failed, problem=problem, dim=dim, method=method, run=run, **context)


def check_codes(ledger: Ledger, verbs, codes: list[int], **context) -> None:
    for verb, code in zip(verbs, codes):
        ledger.op([] if code == 0 else [f"exit code {code}"], verb=verb[0], **context)


def check_pass(ledger: Ledger, config: dict, out_dir: Path, **context) -> dict:
    """Check the training log and records files in ``out_dir``; returns work counts."""
    maxfes = config["maxfes_per_dim"] * config["dims"]
    steps = evals = 0
    train_log = out_dir / "train_log.jsonl"
    if train_log.exists():
        expected = (maxfes - config["pop_size"]) // config["pop_size"]
        for ep in map(json.loads, train_log.read_text(encoding="utf-8").splitlines()):
            failed = []
            if ep["steps"] != expected:
                failed.append(f"{ep['steps']} meta-steps, budget allows {expected}")
            if not math.isfinite(ep["return"]):
                failed.append("non-finite return")
            ledger.op(failed, problem=ep["problem"], dim=ep["dim"], epoch=ep["epoch"],
                      **context)
            steps += ep["steps"]
            evals += maxfes  # the train log has no fes column; each episode spends maxfes
    for path in sorted(out_dir.glob("records*.jsonl")):
        runs = read_runs(path)
        check_runs(ledger, runs, config["maxfes_per_dim"], **context)
        steps += sum(len(s) for s in runs.values())
        evals += sum(s[-1]["fes"] for s in runs.values())
    return {"meta_steps": steps, "evals": evals}


def quality(records: Path, train_log: Path | None) -> dict:
    """final_score_log and return_last_epoch from a run's output files."""
    runs = read_runs(records)
    score = statistics.fmean(math.log10(1.0 + steps[-1]["sco"]) for steps in runs.values())
    if train_log is not None:
        episodes = list(map(json.loads, train_log.read_text(encoding="utf-8").splitlines()))
        last = max(ep["epoch"] for ep in episodes)
        ret = statistics.fmean(ep["return"] for ep in episodes if ep["epoch"] == last)
    else:  # an evaluation is a single epoch
        ret = statistics.fmean(sum(s["reward"] for s in steps) for steps in runs.values())
    return {"final_score_log": score, "return_last_epoch": ret}


def criterion9(ledger: Ledger, cli, c9: Path, out: Path) -> str:
    """Run the criterion-9 leave-one-out twice; a byte mismatch is a failure."""
    dirs = [out / "loo_a", out / "loo_b"]
    failed = []
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
        _, codes = run_verbs(cli, [("loo",)], c9, d)
        failed += [f"loo exit code {c}" for c in codes if c != 0]
    digests = [digest_dir(d) for d in dirs]
    if digests[0] != digests[1]:
        failed.append("criterion-9 leave-one-out reruns differ")
    ledger.op(failed, problem="criterion-9 leave-one-out")
    return digests[0]


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------

def run_metadata(name: str, args, numpy) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        git_sha = proc.stdout.strip() or None
    src_files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for f in src_files:
        tree.update(f"{f.relative_to(SRC)}\0".encode())
        tree.update(f.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha, "src_sha256": tree.hexdigest(),
        "src_lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src_files),
        "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args) -> dict:
    spec = load_spec()
    if not (SRC / "rlrelax" / "__init__.py").is_file():
        raise BenchError(f"no rlrelax package under {SRC}")
    for path in (FIXTURE, FIXTURE_INFO, REFERENCE_DIGESTS):
        if not path.is_file():
            raise BenchError(f"missing {path}")
    sys.path.insert(0, str(SRC))

    name, workload = args.workload, WORKLOADS[args.workload]
    out = OUT_ROOT / f"{name}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ledger = Ledger(name)

    setup_ns, setups = [], []

    def timed_set_up():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            with refkernel.Sampler() as sampler:
                *state, fixture_failed = set_up(workload, args.seed, out)
            setup_ns.append(time.perf_counter_ns() - t0)
            setups.append(sampler)
        ledger.op(fixture_failed, problem="checkpoint fixture")
        return state

    cli, cfg, warm_cfg, c9 = timed_set_up()
    c9_digest = criterion9(ledger, cli, c9, out)

    warm_dir = out / "warmup"
    _, codes = run_verbs(cli, workload.verbs, warm_cfg, warm_dir)
    check_codes(ledger, workload.verbs, codes, phase="warm-up")
    check_pass(ledger, {**workload.config, **workload.warmup}, warm_dir, phase="warm-up")

    pass_dir = out / "pass"
    walls, passes, digests, work = [], [], [], None
    while sum(walls) < args.seconds * 1e9:
        cli, cfg, *_ = timed_set_up()
        with refkernel.Sampler() as sampler:
            wall, codes = run_verbs(cli, workload.verbs, cfg, pass_dir)
        walls.append(wall)
        passes.append(sampler)
        phase = f"pass {len(walls)}"
        check_codes(ledger, workload.verbs, codes, phase=phase)
        work = check_pass(ledger, workload.config, pass_dir, phase=phase)
        digests.append(digest_dir(pass_dir))
    ledger.op([] if len(set(digests)) == 1 else ["result files differ between passes"],
              problem="pass determinism")

    if (pass_dir / "train_log.jsonl").exists():
        quality_dir = out / "quality"
        verbs = [("evaluate", "--checkpoint", str(pass_dir / "checkpoint.txt"))]
        _, codes = run_verbs(cli, verbs, cfg, quality_dir)
        check_codes(ledger, verbs, codes, phase="quality")
        check_pass(ledger, workload.config, quality_dir, phase="quality")
        scores = quality(quality_dir / workload.scored, pass_dir / "train_log.jsonl")
    else:
        scores = quality(pass_dir / workload.scored, None)

    norm_pass_s = statistics.median(p.seconds for p in passes)
    values = {
        "setup_s": statistics.median(refkernel.pooled_s(setups)),
        "norm_pass_s": norm_pass_s,
        "meta_steps_per_s": work["meta_steps"] / norm_pass_s,
        "evals_per_s": work["evals"] / norm_pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **scores,
    }
    metric_spec = spec["end_to_end"]

    if args.trace:
        tracer = spans.Tracer()
        traced_dir = out / "traced"
        spans.install_probes(tracer)
        try:
            cpu0 = time.thread_time_ns()
            traced_wall, codes = run_verbs(cli, workload.verbs, cfg, traced_dir)
            traced_cpu = time.thread_time_ns() - cpu0
        finally:
            tracer.restore()
        check_codes(ledger, workload.verbs, codes, phase="traced pass")
        check_pass(ledger, workload.config, traced_dir, phase="traced pass")
        ledger.op([] if digest_dir(traced_dir) == digests[0]
                  else ["traced pass changed the result files"], problem="tracing")
        values = spans.layer_metrics(tracer, traced_wall, statistics.median(walls))
        # The traced pass runs without the sampler, so that its spans hold only
        # the program; its overhead compares this thread's CPU time instead.
        values["trace.overhead_ratio"] = (
            traced_cpu / statistics.median(p.caller_cpu_ns for p in passes))
        spans.write_spans(tracer, out / "spans.csv")
        (out / "trace_counts.json").write_text(
            json.dumps(dict(sorted(tracer.counts.items())), indent=1), encoding="utf-8")
        metric_spec = spec["per_layer"]

    refs = json.loads(REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    seed_ref = refs.get("workloads", {}).get(name, {}).get(str(args.seed))
    digest_match = (c9_digest == refs.get("criterion9_loo")
                    and (seed_ref is None or seed_ref == digests[0]))

    missing = [m["name"] for m in metric_spec if m["name"] not in values]
    if missing:
        raise BenchError(f"benchmark computed no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec}
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}

    meta = run_metadata(name, args, sys.modules["numpy"])
    meta.update({
        "passes": len(walls), "pass_wall_s": [w / 1e9 for w in walls],
        "pass_cpu_s": [p.caller_cpu_ns / 1e9 for p in passes],
        "pass_norm_s": [p.seconds for p in passes],
        "kernel_gens": [p.gens for p in passes],
        "kernel_gen_cpu_ms": [p.kernel_cpu_ns / p.gens / 1e6 for p in passes],
        "work_per_pass": work, "setup_wall_s": [t / 1e9 for t in setup_ns],
        "setup_norm_s": refkernel.pooled_s(setups),
        "result_digest": digests[0], "criterion9_digest": c9_digest,
        "reference_for_seed": seed_ref, "digest_match": digest_match,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **scores,
    })
    (out / "meta.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    (out / "failures.json").write_text(json.dumps(ledger.failures, indent=1) + "\n",
                                       encoding="utf-8")
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {name}  seed {args.seed}  passes {len(walls)}  "
          f"src_lines {meta['src_lines']}  git {meta['git_sha']}")
    for m, v in metrics.items():
        print(f"  {m:34s} {v['value']:.6g} {v['unit']}")
    # not in BENCHMARK.json: the wall time moves with the host, and the return
    # varies too much across seeds on optimize-50d-lpsr to hold a bound
    print(f"  {'wall_s (median pass, with sampler)':34s} "
          f"{statistics.median(walls) / 1e9:.6g} s")
    print(f"  {'return_last_epoch':34s} {scores['return_last_epoch']:.6g} reward")
    print(f"  failed operations {len(ledger.failures)} of {ledger.attempted}")
    for f in ledger.failures:
        print(f"  FAIL {json.dumps(f)}")
    print(f"  result digest {digests[0]}  digest_match {str(digest_match).lower()}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
