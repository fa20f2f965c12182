"""Span tracing for the benchmark's traced run, and the per-layer arithmetic.

The program is never edited. ``install_probes`` replaces each public
function of an rlrelax module at the place where its caller looks it up:
a name imported with ``from .cop import violation`` is patched in the
importing module, a method on its class, and a module-attribute call such
as ``qnet.forward`` on the defining module. ``Tracer.restore`` undoes every
patch.

Spans live in memory as ``[name, start_ns, end_ns, parent_index, run_id]``;
the run id advances at every ``EpsilonControlEnv.reset``, so the spans of
one optimization run share it. Everything is single-threaded, so the child
spans of a span never overlap and its self time is its duration minus the
sum of its children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter

class Tracer:
    """Records nested spans and named counts from wrapped functions."""

    def __init__(self, clock=time.perf_counter_ns):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, *, on_call=None, on_return=None, new_run=False):
        """Return ``fn`` wrapped so that each call records one span.

        ``on_call(counts, args)`` runs before the call and
        ``on_return(counts, result)`` after it; an exception is counted
        under ``<name>.errors`` and re-raised.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_run:
                self.run_id += 1
            if on_call is not None:
                on_call(counts, args)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if on_return is not None:
                on_return(counts, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, *, base=None, **hooks) -> None:
        """Replace ``owner.attr`` by a traced wrapper around ``base`` or the original."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, base or original, **hooks))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count_trials(counts, evaluated):
    counts["lshade.trials_evaluated"] += evaluated


def _count_success(counts, result):
    counts["lshade.successes"] += bool(result[1])


def _count_nonterminal(counts, args):
    counts["agent.nonterminal"] += sum(not tr.terminal for tr in args[0])


def install_probes(tracer: Tracer) -> None:
    """Patch the rlrelax modules already imported into ``sys.modules``."""
    m = {name: sys.modules[f"rlrelax.{name}"]
         for name in ("problems", "cop", "lshade", "features", "env", "agent", "cli")}
    cop, lshade, features, env, agent, cli = (
        m["cop"], m["lshade"], m["features"], m["env"], m["agent"], m["cli"])

    lookup = m["problems"].ProblemRegistry.lookup

    def traced_lookup(registry, name, dim):
        problem = lookup(registry, name, dim)
        return dataclasses.replace(
            problem, evaluator=tracer.wrap("problems.evaluator", problem.evaluator))

    tracer.patch(m["problems"].ProblemRegistry, "lookup", "problems.lookup", base=traced_lookup)

    tracer.patch(cop.ConstrainedProblem, "evaluate", "cop.evaluate")
    for owner in (cop, lshade, features):
        for fn in ("violation", "relaxed_violation", "is_feasible", "sco", "eps_compare"):
            if hasattr(owner, fn):
                tracer.patch(owner, fn, f"cop.{fn}")

    tracer.patch(env, "init_population", "lshade.init_population")
    tracer.patch(env, "generation_step", "lshade.generation_step", on_return=_count_trials)
    tracer.patch(lshade, "refresh_relaxed", "lshade.refresh_relaxed")
    tracer.patch(lshade, "select_survivor", "lshade.select_survivor", on_return=_count_success)

    for owner in (env, features):
        tracer.patch(owner, "top5_violation_mean", "features.top5_violation_mean")
    tracer.patch(env, "extract_state", "features.extract_state")
    tracer.patch(env, "mask_constraint_features", "features.mask_constraint_features")

    tracer.patch(env.EpsilonControlEnv, "reset", "env.reset", new_run=True)
    tracer.patch(env.EpsilonControlEnv, "step", "env.step")
    tracer.patch(env.EpsilonControlEnv, "step_with_epsilon", "env.step_with_epsilon")

    for fn in ("forward", "forward_batch", "td_target", "loss_with_fixed_targets",
               "sgd_step", "sync_target", "act_eps_greedy", "init_params"):
        tracer.patch(agent, fn, f"agent.{fn}")
    tracer.patch(agent, "loss_and_grad", "agent.loss_and_grad", on_call=_count_nonterminal)
    tracer.patch(agent.ReplayBuffer, "push", "agent.replay_push")
    tracer.patch(agent.ReplayBuffer, "sample", "agent.replay_sample")

    tracer.patch(agent, "save_checkpoint", "harness.write_checkpoint")
    tracer.patch(agent, "load_checkpoint", "harness.read_checkpoint")
    for fn in ("write_records_jsonl", "write_table_csv", "write_jsonl"):
        tracer.patch(cli, fn, f"harness.{fn}")
    for fn in ("train", "evaluate", "run_baseline", "aggregate_table"):
        tracer.patch(cli, fn, f"harness.{fn}")
    tracer.patch(cli, "main", "harness.main")


# ---------------------------------------------------------------------------
# Arithmetic over recorded spans
# ---------------------------------------------------------------------------

def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between closest ranks; 0 if empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, traced_wall_ns: int, untraced_wall_ns: float) -> dict:
    """Per-layer metrics (name -> value) from one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur: dict[str, list[int]] = {}
    self_of: dict[str, list[int]] = {}
    busy = Counter()
    for (name, start, end, _, _), s in zip(spans, selfs):
        dur.setdefault(name, []).append(end - start)
        self_of.setdefault(name, []).append(s)
        busy[layer_of(name)] += s

    # env meta-steps: the outermost env span of each step
    steps = [end - start for name, start, end, parent, _ in spans
             if name == "env.step"
             or (name == "env.step_with_epsilon"
                 and (parent < 0 or spans[parent][0] != "env.step"))]

    # forward passes made while computing an update (parents precede children)
    in_update = [False] * len(spans)
    forwards_in_update = 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            in_update[i] = in_update[parent] or spans[parent][0] == "agent.loss_and_grad"
        if in_update[i] and name in ("agent.forward", "agent.forward_batch"):
            forwards_in_update += 1

    def n(name):
        return len(dur.get(name, ()))

    def p(name, q, scale, table=dur):
        return percentile(table.get(name, ()), q) / scale

    def share(layer):
        return busy[layer] / traced_wall_ns

    c = tracer.counts
    grad_steps = n("agent.loss_and_grad")
    trials = c["lshade.trials_evaluated"]
    us, ms = 1e3, 1e6
    return {
        "problems.evaluator_calls": n("problems.evaluator"),
        "problems.evaluator_us_p50": p("problems.evaluator", 50, us),
        "problems.busy_share": share("problems"),
        "cop.evaluate_self_us_p50": p("cop.evaluate", 50, us, self_of),
        "cop.violation_calls": n("cop.violation"),
        "cop.relaxed_violation_calls": n("cop.relaxed_violation"),
        "cop.is_feasible_calls": n("cop.is_feasible"),
        "cop.relaxed_violation_us_p50": p("cop.relaxed_violation", 50, us),
        "cop.busy_share": share("cop"),
        "cop.errors": sum(v for k, v in c.items()
                          if k.startswith("cop.") and k.endswith(".errors")),
        "lshade.generation_step_ms_p50": p("lshade.generation_step", 50, ms),
        "lshade.generation_step_ms_p99": p("lshade.generation_step", 99, ms),
        "lshade.self_share": share("lshade"),
        "lshade.refresh_relaxed_ms_p50": p("lshade.refresh_relaxed", 50, ms),
        "lshade.trials_evaluated": trials,
        "lshade.success_ratio": c["lshade.successes"] / trials if trials else 0.0,
        "features.calls": sum(n(k) for k in dur if layer_of(k) == "features"),
        "features.extract_state_us_p50": p("features.extract_state", 50, us),
        "features.busy_share": share("features"),
        "env.step_ms_p50": percentile(steps, 50) / ms,
        "env.step_ms_p99": percentile(steps, 99) / ms,
        "env.reset_ms_p50": p("env.reset", 50, ms),
        "env.self_share": share("env"),
        "agent.forward_calls": n("agent.forward"),
        "agent.forward_us_p50": p("agent.forward", 50, us),
        "agent.grad_steps": grad_steps,
        "agent.forwards_per_update": forwards_in_update / grad_steps if grad_steps else 0.0,
        "agent.nonterminal_per_update": c["agent.nonterminal"] / grad_steps if grad_steps else 0.0,
        "agent.loss_and_grad_ms_p50": p("agent.loss_and_grad", 50, ms),
        "agent.replay_sample_us_p50": p("agent.replay_sample", 50, us),
        "agent.busy_share": share("agent"),
        "harness.write_ms": sum(sum(v) for k, v in dur.items()
                                if k.startswith("harness.write_")) / ms,
        "harness.self_share": share("harness"),
        "trace.overhead_ratio": traced_wall_ns / untraced_wall_ns,
    }


def write_spans(tracer: Tracer, path) -> None:
    """One CSV line per span: name, start_ns, end_ns, parent, run."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_ns,end_ns,parent,run\n")
        for name, start, end, parent, run in tracer.spans:
            fh.write(f"{name},{start},{end},{parent},{run}\n")
