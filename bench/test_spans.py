"""Self-time, percentile and per-layer arithmetic on hand-built spans.

Run with ``python -m pytest bench/test_spans.py``.
"""

import itertools
import types

import pytest

from spans import Tracer, layer_metrics, percentile, self_times

US = 1000  # ns per microsecond

# name, start, end, parent, run -- a meta-step with two evaluations, then a reset
SPANS = [
    ["harness.main", 0, 100 * US, -1, 0],
    ["env.step", 10 * US, 60 * US, 0, 1],
    ["lshade.generation_step", 15 * US, 55 * US, 1, 1],
    ["cop.evaluate", 20 * US, 30 * US, 2, 1],
    ["problems.evaluator", 22 * US, 28 * US, 3, 1],
    ["cop.evaluate", 35 * US, 45 * US, 2, 1],
    ["problems.evaluator", 36 * US, 44 * US, 5, 1],
    ["env.reset", 70 * US, 90 * US, 0, 2],
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SPANS) == [x * US for x in (30, 10, 20, 4, 6, 2, 8, 20)]


def test_self_times_sum_to_root_duration():
    assert sum(self_times(SPANS)) == 100 * US


@pytest.mark.parametrize("values, q, expected", [
    ([], 50, 0.0),
    ([7], 99, 7),
    ([4, 1, 3, 2], 50, 2.5),
    ([4, 1, 3, 2], 0, 1),
    ([4, 1, 3, 2], 100, 4),
    (list(range(1, 101)), 99, 99.01),
])
def test_percentile_interpolates_between_ranks(values, q, expected):
    assert percentile(values, q) == pytest.approx(expected)


def test_layer_metrics_from_hand_built_spans():
    tracer = Tracer()
    tracer.spans.extend(SPANS)
    tracer.counts.update({"lshade.trials_evaluated": 2, "lshade.successes": 1})
    m = layer_metrics(tracer, traced_wall_ns=100 * US, untraced_wall_ns=80 * US)
    assert m["problems.evaluator_calls"] == 2
    assert m["problems.evaluator_us_p50"] == pytest.approx(7.0)
    assert m["problems.busy_share"] == pytest.approx(0.14)
    assert m["cop.evaluate_self_us_p50"] == pytest.approx(3.0)
    assert m["cop.busy_share"] == pytest.approx(0.06)
    assert m["lshade.self_share"] == pytest.approx(0.20)
    assert m["lshade.success_ratio"] == pytest.approx(0.5)
    assert m["env.step_ms_p50"] == pytest.approx(0.05)
    assert m["env.reset_ms_p50"] == pytest.approx(0.02)
    assert m["env.self_share"] == pytest.approx(0.30)
    assert m["harness.self_share"] == pytest.approx(0.30)
    assert m["agent.forward_calls"] == 0 and m["agent.forwards_per_update"] == 0.0
    assert m["trace.overhead_ratio"] == pytest.approx(1.25)


def test_forwards_per_update_counts_nested_forwards_only():
    tracer = Tracer()
    tracer.spans.extend([
        ["agent.forward", 0, 1, -1, 0],                 # acting: not part of an update
        ["agent.loss_and_grad", 2, 20, -1, 0],
        ["agent.td_target", 3, 10, 1, 0],
        ["agent.forward", 4, 5, 2, 0],
        ["agent.forward", 6, 7, 2, 0],
        ["agent.loss_with_fixed_targets", 11, 19, 1, 0],
    ])
    m = layer_metrics(tracer, traced_wall_ns=20, untraced_wall_ns=20)
    assert m["agent.grad_steps"] == 1
    assert m["agent.forward_calls"] == 3
    assert m["agent.forwards_per_update"] == 2.0


def test_tracer_records_nesting_counts_errors_and_restores():
    clock = itertools.count(0, 10)
    tracer = Tracer(clock=lambda: next(clock))
    mod = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    tracer.patch(mod, "inner", "cop.inner")
    tracer.patch(mod, "outer", "lshade.outer",
                 on_return=lambda counts, r: counts.update({"sum": r}))
    assert mod.outer(3) == 6
    with pytest.raises(ValueError):
        mod.inner(-1)
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer

    assert [s[0] for s in tracer.spans] == ["lshade.outer", "cop.inner", "cop.inner", "cop.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert self_times(tracer.spans)[0] == 50 - 2 * 10
    assert tracer.counts["sum"] == 6
    assert tracer.counts["cop.inner.errors"] == 1

