"""Contract between the program and the benchmark's span tracing.

bench/spans.py patches rlrelax functions by name where their callers look
them up. A rename or a changed return shape would only surface when the
benchmark runs with ``--trace 1``; this test installs the probes, runs one
tiny evaluation under them, and restores the originals.
"""

import importlib.util
from pathlib import Path

from rlrelax import env, lshade
from rlrelax.cli import EXIT_OK, main  # install_probes patches the imported modules

BENCH = Path(__file__).resolve().parent.parent / "bench"
CHECKPOINT = BENCH / "fixtures" / "checkpoint.txt"

TINY = """
problems = cec12, synthetic/sphere-linear/9
dims = 10
pop_size = 10
maxfes_per_dim = 3
runs = 1
seed = 0
"""


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_install_trace_a_run_and_restore(tmp_path):
    spans = load_spans()
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    originals = (env.generation_step, env.extract_state, lshade.select_survivor,
                 lshade.refresh_relaxed)
    tracer = spans.Tracer()
    spans.install_probes(tracer)
    try:
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--checkpoint", str(CHECKPOINT)])
    finally:
        tracer.restore()
    assert code == EXIT_OK
    assert (env.generation_step, env.extract_state, lshade.select_survivor,
            lshade.refresh_relaxed) == originals

    names = [span[0] for span in tracer.spans]
    # 2 problems x 1 run x 2 generations of 10 trials each; the evaluator
    # runs once per batch (init and each generation), selection is vectorised
    assert names.count("env.reset") == 2
    assert names.count("lshade.generation_step") == 4
    assert names.count("features.extract_state") == 6
    assert names.count("features.top5_violation_mean") == 6
    assert names.count("problems.evaluator") == 2 * 3
    assert names.count("lshade.select_survivor") == 0
    assert tracer.counts["lshade.trials_evaluated"] == 40
    assert not [k for k in tracer.counts if k.endswith(".errors")]

    metrics = spans.layer_metrics(tracer, 1, 1.0)
    assert metrics["lshade.trials_evaluated"] == 40
    assert 0.0 <= metrics["lshade.success_ratio"] <= 1.0
