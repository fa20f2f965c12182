"""Contract between the program and the benchmark's span tracing.

bench/spans.py patches rlrelax functions by name where their callers look
them up. A rename or a changed return shape would only surface when the
benchmark runs with ``--trace 1``; these tests install the probes, run one
tiny evaluation or training under them, and restore the originals.
"""

import importlib.util
from pathlib import Path

from rlrelax import agent, cli, env, lshade
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


TRAIN = TINY.replace("maxfes_per_dim = 3", "maxfes_per_dim = 5") + """
epochs = 2
batch_size = 4
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
    # 2 problems x 1 run x 2 generations of 10 trials each, both problems one
    # stacked group on the shared box; each problem's evaluator runs once per
    # batch (init and each generation), selection is vectorised
    assert names.count("env.reset") == 1
    assert names.count("lshade.generation_step") == 2
    # one observation per reset, plus one per greedy read before each later
    # step; the final observation is never computed
    assert names.count("features.extract_state") == 2
    assert names.count("features.top5_violation_mean") == 3
    assert names.count("problems.evaluator") == 2 * 3
    assert names.count("lshade.select_survivor") == 0
    assert tracer.counts["lshade.trials_evaluated"] == 40
    assert not [k for k in tracer.counts if k.endswith(".errors")]

    metrics = spans.layer_metrics(tracer, 1, 1.0)
    assert metrics["lshade.trials_evaluated"] == 40
    assert 0.0 <= metrics["lshade.success_ratio"] <= 1.0


def test_probes_trace_training_and_restore(tmp_path):
    spans = load_spans()
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TRAIN)
    originals = (agent.loss_and_grad, agent.td_target, agent.ReplayBuffer.push,
                 agent.ReplayBuffer.sample, cli.train, env.generation_step)
    tracer = spans.Tracer()
    spans.install_probes(tracer)
    try:
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert code == EXIT_OK
    assert (agent.loss_and_grad, agent.td_target, agent.ReplayBuffer.push,
            agent.ReplayBuffer.sample, cli.train, env.generation_step) == originals

    names = [span[0] for span in tracer.spans]
    # 2 problems x 2 epochs x 4 generations: 16 transitions; a batch of 4 is
    # first available at the 4th, so 13 updates of 4 targets each. Every
    # sampled batch holds a non-terminal transition (4 of the 16 are
    # terminal), so each update prices its targets in one forward over the
    # stacked online and target nets and makes no per-transition td_target call
    assert names.count("harness.train") == 1
    assert names.count("env.reset") == 4
    assert names.count("agent.replay_push") == 16
    assert names.count("agent.replay_sample") == 13
    assert names.count("agent.loss_and_grad") == 13
    assert names.count("agent.td_target") == 0
    assert names.count("agent.forward_batch") == 13
    assert names.count("agent.sgd_step") == 13
    assert names.count("agent.sync_target") == 1  # target_sync_period 10
    assert names.count("harness.write_checkpoint") == 1
    assert tracer.counts["lshade.trials_evaluated"] == 16 * 10
    # the probe iterates each sampled batch as transitions and reads .terminal
    assert tracer.counts["agent.nonterminal"] == 45
    assert not [k for k in tracer.counts if k.endswith(".errors")]

    metrics = spans.layer_metrics(tracer, 1, 1.0)
    assert metrics["agent.grad_steps"] == 13
    assert metrics["agent.forwards_per_update"] == 1
