import copy
import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlrelax import agent as qnet
from rlrelax import env as env_module
from rlrelax import harness
from rlrelax.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME
from rlrelax.cli import main as cli_main
from rlrelax.config import ConfigError, ExperimentConfig
from rlrelax.cop import ProblemDefinitionError
from rlrelax.env import STEP_COLUMNS
from rlrelax.problems import ProblemRegistry
from rlrelax.harness import (
    BASELINES,
    RunRecord,
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
)


col = STEP_COLUMNS.index  # a step record's column of one name


def trace(rows: list[dict]) -> np.ndarray:
    """The (steps, len(STEP_COLUMNS)) record of steps given as dicts."""
    return np.array([[row[k] for k in STEP_COLUMNS] for row in rows], dtype=float)


def toy_cfg(**overrides):
    base = dict(
        problems=["synthetic/sphere-linear/0", "synthetic/rastrigin-ring/1"],
        dims=[4], pop_size=20, maxfes_per_dim=20,  # 80 evals -> 3 meta-steps
        runs=2, seed=3, epochs=2, buffer_capacity=64, batch_size=3,  # one episode fills it
        out_dir="unused",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_cli(tmp_path, verb, *args, **overrides):
    """Run ``verb`` through the CLI on toy_cfg's settings with ``overrides``;
    returns the exit code and the --out directory."""
    values = {f.name: getattr(toy_cfg(**overrides), f.name)
              for f in dataclasses.fields(ExperimentConfig)}
    path = tmp_path / "toy.cfg"
    path.write_text("".join(f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                            for k, v in values.items()))
    out = tmp_path / "out"
    return cli_main([verb, "--config", str(path), "--out", str(out), *args]), out


class TestTrain:
    def test_episode_count(self):
        cfg = toy_cfg(epochs=3)
        result = train(cfg)
        # epochs x problems episodes, each (maxfes - n) / n steps long
        assert len(result.episodes) == 3 * 2
        assert all(row["steps"] == 3 for row in result.episodes)

    def test_training_with_no_update_rejected_before_any_episode(self, monkeypatch):
        # one problem, one epoch: 3 transitions, one short of a batch of 4
        monkeypatch.setattr(harness, "_run", None)  # any episode would raise TypeError
        cfg = toy_cfg(problems=["synthetic/sphere-linear/0"], epochs=1, batch_size=4)
        with pytest.raises(ConfigError, match="training makes 3 transitions, fewer than "
                                              "batch_size 4"):
            train(cfg)

    def test_empty_problem_list_rejected(self):
        cfg = toy_cfg(problems=[])
        with pytest.raises(ConfigError, match="non-empty"):
            train(cfg)

    def test_metadata_carries_scheme_and_hash(self):
        cfg = toy_cfg()
        result = train(cfg)
        assert result.metadata.action_scheme == "exponential"
        assert result.metadata.epochs == 2
        assert "problem_set_hash" in result.metadata.extra

    def test_deterministic_checkpoint_bytes(self, tmp_path):
        cfg = toy_cfg()
        a, b = train(cfg), train(toy_cfg())
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        qnet.save_checkpoint(a.params, a.metadata, pa)
        qnet.save_checkpoint(b.params, b.metadata, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_acting_forward_only_on_greedy_steps(self, monkeypatch):
        # an explored step draws its action without computing the action values
        forwards, per_step, explored = [], [], []
        real_forward, real_act = qnet.forward, qnet.act_eps_greedy

        def counted_forward(state, params):
            forwards.append(1)
            return real_forward(state, params)

        def act(q, n_actions, rate, rng):
            explored.append(rate > 0.0 and copy.deepcopy(rng).random() < rate)
            before = len(forwards)
            action = real_act(q, n_actions, rate, rng)
            per_step.append(len(forwards) - before)
            return action

        monkeypatch.setattr(qnet, "forward", counted_forward)
        monkeypatch.setattr(qnet, "act_eps_greedy", act)
        train(toy_cfg(epochs=3))
        assert 0 < sum(explored) < len(explored) == 18
        assert per_step == [0 if e else 1 for e in explored]
        assert len(forwards) == explored.count(False)

    def test_training_actually_updates_weights(self):
        cfg = toy_cfg(epochs=3)
        result = train(cfg)
        fresh = qnet.init_params(n_out=11, rng=np.random.default_rng([cfg.seed, 101]))
        assert not np.array_equal(result.params.w1, fresh.w1)


class TestEvaluate:
    def test_table_shape_and_runs(self):
        cfg = toy_cfg()
        result = train(cfg)
        records = evaluate(cfg, result.params, result.metadata)
        assert len(records) == 2 * 2  # problems x runs
        rows = aggregate_table(records)
        assert {r["problem"] for r in rows} == set(cfg.problems)
        assert all(r["runs"] == 2 for r in rows)

    def test_single_run_zero_std(self):
        cfg = toy_cfg(runs=1)
        result = train(cfg)
        rows = aggregate_table(evaluate(cfg, result.params, result.metadata))
        assert all(r["std"] == 0.0 for r in rows)

    def test_scheme_mismatch_refused(self):
        cfg = toy_cfg()
        result = train(cfg)
        bad = toy_cfg(action_scheme="linear-ca")
        with pytest.raises(ConfigError, match="scheme"):
            evaluate(bad, result.params, result.metadata)

    def test_reward_variant_mismatch_refused(self):
        cfg = toy_cfg()
        result = train(cfg)
        bad = toy_cfg(reward_variant="r2")
        with pytest.raises(ConfigError, match="reward variant"):
            evaluate(bad, result.params, result.metadata)

    def test_identical_reruns_byte_identical(self, tmp_path):
        cfg = toy_cfg()
        result = train(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table_csv(aggregate_table(evaluate(cfg, result.params, result.metadata)), pa)
        write_table_csv(aggregate_table(evaluate(cfg, result.params, result.metadata)), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_budget_parity_across_methods(self):
        cfg = toy_cfg(runs=1)
        result = train(cfg)
        trained = evaluate(cfg, result.params, result.metadata)
        sched = run_baseline(cfg, "scheduled-eps")
        for a, b in zip(trained, sched):
            assert a.steps[-1, col("fes")] == b.steps[-1, col("fes")] == cfg.maxfes(4)


class TestBaselines:
    def test_unknown_baseline_lists_names(self):
        cfg = toy_cfg()
        with pytest.raises(ConfigError) as err:
            run_baseline(cfg, "magic")
        for name in BASELINES:
            assert name in str(err.value)

    def test_scheduled_eps_tightens_to_zero(self):
        cfg = toy_cfg(runs=1, sched_power=2.0)
        records = run_baseline(cfg, "scheduled-eps")
        for record in records:
            assert record.steps[-1, col("eps_max")] <= record.steps[0, col("eps_max")]
            # the last generation starts at fes = maxfes - pop, factor > 0
            assert record.steps[-1, col("eps_max")] >= 0.0

    def test_scheduled_eps_factor_arithmetic(self):
        # (1 - fes/maxfes)^cp at the halfway point with cp = 2 gives 1/4
        assert (1.0 - 0.5) ** 2 == pytest.approx(0.25)

    def test_feasibility_rule_equals_static_on_unconstrained(self):
        cfg = toy_cfg(problems=["synthetic/sphere-linear/0"], runs=1)
        # sphere-linear has one inequality; make a feasible-everywhere variant
        # by comparing the two baselines on identical seeds instead
        feas = run_baseline(cfg, "feasibility-rule")
        static = run_baseline(cfg, "static-eps")
        # same initial population (paired seeds): first-step fes identical
        assert feas[0].steps[0, col("fes")] == static[0].steps[0, col("fes")]

    def test_untrained_agent_deterministic(self):
        cfg = toy_cfg(runs=1)
        a = run_baseline(cfg, "untrained-agent")
        b = run_baseline(cfg, "untrained-agent")
        assert a[0].final_sco == b[0].final_sco
        assert a[0].steps[:, col("level")].tobytes() == b[0].steps[:, col("level")].tobytes()

    def test_static_level_recorded(self):
        cfg = toy_cfg(runs=1, static_level=0.3)
        records = run_baseline(cfg, "static-eps")
        assert (records[0].steps[:, col("level")] == 0.3).all()


class TestProtocols:
    def test_leave_one_out_layout_and_hygiene(self, tmp_path):
        code, out = run_cli(tmp_path, "loo", runs=1, epochs=1,
                            problems=["synthetic/sphere-linear/0", "synthetic/rastrigin-ring/1",
                                      "synthetic/ackley-ellipsoid/2"])
        assert code == EXIT_OK
        assert (out / "loo_results.csv").exists()
        log = (out / "train_log.jsonl").read_text().splitlines()
        import json
        for line in log:
            row = json.loads(line)
            assert row["problem"] != row["holdout"]
        # one checkpoint per held-out problem
        assert len(list(out.glob("checkpoint_*.txt"))) == 3
        # one run per held-out problem
        assert len(load_records_jsonl(out / "records.jsonl")) == 3

    def test_leave_one_out_returns_folds_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = toy_cfg(runs=1, epochs=1, out_dir=str(tmp_path / "out"))
        folds = leave_one_out(cfg)
        assert list(folds) == list(cfg.problems)
        for held_out, (result, records) in folds.items():
            assert held_out not in {row["problem"] for row in result.episodes}
            assert [(r.problem, r.method) for r in records] == [(held_out, "trained-agent")]
        assert not any(tmp_path.iterdir())

    def test_leave_one_out_needs_two_problems(self):
        cfg = toy_cfg(problems=["synthetic/sphere-linear/0"])
        with pytest.raises(ConfigError, match="at least two problems"):
            leave_one_out(cfg)

    def test_leave_one_out_byte_identical(self, tmp_path):
        for label in ("a", "b"):
            (tmp_path / label).mkdir()
            assert run_cli(tmp_path / label, "loo", runs=1, epochs=1)[0] == EXIT_OK
        for name in ("loo_results.csv", "records.jsonl", "train_log.jsonl"):
            assert (tmp_path / "a" / "out" / name).read_bytes() == \
                   (tmp_path / "b" / "out" / name).read_bytes()

    def test_split_rejects_overlap_and_empty(self):
        name = "synthetic/sphere-linear/0"
        cfg = toy_cfg(train_problems=[name], test_problems=[name])
        with pytest.raises(ConfigError, match="overlap"):
            split_protocol(cfg)
        with pytest.raises(ConfigError, match="non-empty"):
            split_protocol(toy_cfg(train_problems=[name]))

    def test_split_keeps_test_out_of_training(self, tmp_path):
        code, out = run_cli(tmp_path, "split", runs=1, epochs=1,
                            train_problems=["synthetic/sphere-linear/0"],
                            test_problems=["synthetic/rastrigin-ring/1"])
        assert code == EXIT_OK
        import json
        for line in (out / "train_log.jsonl").read_text().splitlines():
            assert json.loads(line)["problem"] == "synthetic/sphere-linear/0"


class TestLeakCheck:
    """The hold-out check is a raised error, so it holds under python -O."""

    @pytest.mark.parametrize("protocol, args, leaked", [
        ("loo", [], "sphere-linear/0"), ("split", [], "rastrigin-ring/1"),
        ("ablate", ["--variant", "no-train"], "rastrigin-ring/1")])
    def test_leaked_problem_raises(self, monkeypatch, tmp_path, capsys, protocol, args, leaked):
        real_train = harness.train

        def leaky_train(cfg):
            result = real_train(cfg)
            result.episodes.extend({**result.episodes[0], "problem": name}
                                   for name in cfg.problems)
            return result

        monkeypatch.setattr(harness, "train", leaky_train)
        code, out = run_cli(tmp_path, protocol, *args, epochs=1, runs=1,
                            train_problems=["synthetic/sphere-linear/0"],
                            test_problems=["synthetic/rastrigin-ring/1"])
        assert code == EXIT_RUNTIME
        assert re.search(f"leaked into training: .*{leaked}", capsys.readouterr().err)
        assert not out.exists()


class TestRunFailedError:
    """A generation that raises on one problem is reported as that problem's
    run or training episode, with the original error as the cause."""

    FAULTY = "synthetic/rastrigin-ring/1"

    @pytest.fixture
    def boom(self, monkeypatch):
        real_step = env_module.generation_step
        error = ValueError("boom")

        def faulty_step(pop, problem, *args):
            if problem.name == self.FAULTY:
                raise error
            return real_step(pop, problem, *args)

        monkeypatch.setattr(env_module, "generation_step", faulty_step)
        return error

    @pytest.mark.parametrize("call, context", [
        (lambda cfg: train(cfg), "training on {p} (dim 4, epoch 0)"),
        (lambda cfg: evaluate(cfg, harness._init_params(cfg)),
         "trained-agent on {p} (dim 4, run 0)"),
        (lambda cfg: run_baseline(cfg, "feasibility-rule"),
         "feasibility-rule on {p} (dim 4, run 0)"),
    ], ids=["train", "evaluate", "run_baseline"])
    def test_message_names_the_run_and_keeps_the_cause(self, boom, call, context):
        with pytest.raises(harness.RunFailedError) as info:
            call(toy_cfg(epochs=1))
        assert str(info.value) == context.format(p=self.FAULTY) + " failed: boom"
        assert info.value.__cause__ is boom

    def test_cli_exits_3_and_writes_nothing(self, boom, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"problems = synthetic/sphere-linear/0, {self.FAULTY}\n"
                       "dims = 4\npop_size = 20\nmaxfes_per_dim = 20\nepochs = 1\n"
                       "batch_size = 3\n")
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"training on {self.FAULTY} (dim 4, epoch 0) failed: boom" in err
        assert not out.exists()


class TestBatchedRunFailure:
    """A group of runs that fails is replayed one run at a time, and the
    error names the run that fails alone, with that run's error as cause."""

    NAME = "synthetic/rastrigin-ring/1"

    @pytest.fixture
    def nan_on_run_2(self, monkeypatch):
        cfg = toy_cfg(problems=[self.NAME], runs=3)
        problem = cfg.registry.lookup(self.NAME, 4)
        # run 2's initial population, drawn as init_population draws it
        rows = harness._rng(cfg.seed, 4, 2, self.NAME).uniform(
            problem.lower, problem.upper, size=(cfg.pop_size, 4))
        lookup = ProblemRegistry.lookup

        def poisoned(registry, name, dim):
            real = lookup(registry, name, dim)

            def evaluator(X):
                f, C = real.evaluator(X)
                hit = (X[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
                return np.where(hit, np.nan, f), C

            return dataclasses.replace(real, evaluator=evaluator)

        monkeypatch.setattr(ProblemRegistry, "lookup", poisoned)
        return cfg

    def test_error_names_run_2_and_keeps_its_cause(self, nan_on_run_2):
        with pytest.raises(harness.RunFailedError) as info:
            run_baseline(nan_on_run_2, "feasibility-rule")
        message = str(info.value)
        assert message.startswith(f"feasibility-rule on {self.NAME} (dim 4, run 2) failed: ")
        assert "row 0: non-finite" in message
        assert isinstance(info.value.__cause__, ProblemDefinitionError)
        assert str(info.value.__cause__) in message

    def test_cli_exits_3_and_writes_nothing(self, nan_on_run_2, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"problems = {self.NAME}\ndims = 4\npop_size = 20\nmaxfes_per_dim = 20\n"
                       "runs = 3\nseed = 3\n")
        out = tmp_path / "out"
        assert cli_main(["baseline", "--config", str(cfg), "--out", str(out),
                         "--name", "feasibility-rule"]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"feasibility-rule on {self.NAME} (dim 4, run 2) failed: " in err
        assert not out.exists()

    def test_stacked_group_names_the_failing_problems_run(self, monkeypatch):
        # rastrigin-ring/1 and griewank-plane/3 share a layout and run as one group
        names = [self.NAME, "synthetic/griewank-plane/3"]
        cfg = toy_cfg(problems=names, runs=2)
        problem = cfg.registry.lookup(names[1], 4)
        rows = harness._rng(cfg.seed, 4, 1, names[1]).uniform(
            problem.lower, problem.upper, size=(cfg.pop_size, 4))
        lookup = ProblemRegistry.lookup

        def poisoned(registry, name, dim):
            real = lookup(registry, name, dim)
            if name != names[1]:
                return real

            def evaluator(X):
                f, C = real.evaluator(X)
                hit = (X[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
                return np.where(hit, np.nan, f), C

            return dataclasses.replace(real, evaluator=evaluator)

        monkeypatch.setattr(ProblemRegistry, "lookup", poisoned)
        with pytest.raises(harness.RunFailedError) as info:
            run_baseline(cfg, "feasibility-rule")
        message = str(info.value)
        assert message.startswith(f"feasibility-rule on {names[1]} (dim 4, run 1) failed: "
                                  f"{names[1]}: row 0: non-finite")
        assert isinstance(info.value.__cause__, ProblemDefinitionError)


SPLIT_LISTS = dict(train_problems=["synthetic/sphere-linear/0"],
                   test_problems=["synthetic/rastrigin-ring/1"])


class TestAblate:
    def test_no_state_masks_logged_states(self):
        cfg = toy_cfg(runs=1, epochs=1, **SPLIT_LISTS)
        full, ablated = ablate(cfg, ["no-state"])
        assert {r.method for r in full} == {"trained-agent"}
        assert list(ablated) == ["no-state"]
        assert {r.method for r in ablated["no-state"]} == {"no-state"}

    def test_no_train_variant(self):
        cfg = toy_cfg(runs=1, epochs=1, **SPLIT_LISTS)
        full, ablated = ablate(cfg, ["no-train"])
        assert {r.method for r in full} == {"trained-agent"}
        assert {v: {r.method for r in rs} for v, rs in ablated.items()} == \
               {"no-train": {"no-train"}}

    def test_action_scheme_variant_retrains(self):
        cfg = toy_cfg(runs=1, epochs=1, **SPLIT_LISTS)
        full, ablated = ablate(cfg, ["ca"])
        assert {r.method for r in full} == {"trained-agent"}
        assert {v: {r.method for r in rs} for v, rs in ablated.items()} == {"ca": {"ca"}}

    @pytest.mark.parametrize("variants, trainings", [
        (["r1", "no-state", "aa"], 1 + 2), (list(harness.ABLATIONS), 1 + 5)])
    def test_full_method_trains_once(self, monkeypatch, variants, trainings):
        # one training for the full method, one per variant that retrains
        calls = []
        real_train = harness.train
        monkeypatch.setattr(harness, "train", lambda cfg: calls.append(cfg) or real_train(cfg))
        cfg = toy_cfg(runs=1, epochs=1, **SPLIT_LISTS)
        full, ablated = ablate(cfg, variants)
        assert len(calls) == trainings
        assert calls[0] == cfg
        assert list(ablated) == variants
        assert {r.method for r in full} == {"trained-agent"}
        for variant, records in ablated.items():
            assert {r.method for r in records} == {variant}
            assert [(r.problem, r.run) for r in records] == [(r.problem, r.run) for r in full]

    def test_unknown_variant(self):
        cfg = toy_cfg(**SPLIT_LISTS)
        with pytest.raises(ConfigError, match="unknown ablation"):
            ablate(cfg, ["no-everything"])

    @pytest.mark.parametrize("variants, message", [
        (["r1", "no-state", "bogus"], "unknown ablation 'bogus'"),
        (["r1", "aa", "r1"], "ablations list 'r1' more than once"),
        ([], "no ablation given")])
    def test_bad_list_rejected_before_training(self, monkeypatch, variants, message):
        monkeypatch.setattr(harness, "train", None)  # any training would raise TypeError
        cfg = toy_cfg(**SPLIT_LISTS)
        with pytest.raises(ConfigError, match=re.escape(message)):
            ablate(cfg, variants)

    def test_requires_split_lists(self):
        cfg = toy_cfg()
        with pytest.raises(ConfigError, match="train_problems"):
            ablate(cfg, ["no-state"])

    @pytest.mark.parametrize("variant", ["no-state", "r1"])
    def test_rejects_overlap(self, tmp_path, capsys, variant):
        # the split protocol rejects the same lists; no result is reported
        code, out = run_cli(tmp_path, "ablate", "--variant", variant, runs=1, epochs=1,
                            train_problems=["synthetic/sphere-linear/0",
                                            "synthetic/rastrigin-ring/1"],
                            test_problems=["synthetic/rastrigin-ring/1"])
        assert code == EXIT_CONFIG
        assert re.search("overlap: .*rastrigin-ring/1", capsys.readouterr().err)
        assert not out.exists()


class TestExport:
    def _records(self):
        cfg = toy_cfg(runs=2)
        result = train(cfg)
        trained = evaluate(cfg, result.params, result.metadata)
        sched = run_baseline(cfg, "scheduled-eps")
        return trained + sched

    def test_curves_files(self, tmp_path):
        records = self._records()
        csv_path = export_curves(records, tmp_path)
        # the traces are records.jsonl's to hold; only the CSV is written
        assert [p.name for p in tmp_path.iterdir()] == ["curves.csv"]
        assert csv_path == tmp_path / "curves.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "problem,dim,method,step,fes,norm_sco"
        values = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_normalization_pooled_across_methods(self, tmp_path):
        # hand-built traces: bounds pool to [2, 10] across both methods
        def rec(method, scores):
            steps = trace([dict(step=i + 1, fes=(i + 2) * 10, level=0.5, eps_min=0.0,
                                eps_mean=0.0, eps_max=0.0, reward=0.0, sco=s)
                           for i, s in enumerate(scores)])
            return RunRecord(problem="p", dim=2, method=method, run=0, steps=steps)

        records = [rec("m1", [10.0, 8.0, 6.0]), rec("m2", [9.0, 5.0, 2.0])]
        csv_path = export_curves(records, tmp_path)
        rows = [ln.split(",") for ln in csv_path.read_text().splitlines()[1:]]
        values = {(r[2], int(r[3])): float(r[5]) for r in rows}
        assert values[("m1", 1)] == pytest.approx(1.0)
        assert values[("m1", 3)] == pytest.approx(0.5)
        assert values[("m2", 1)] == pytest.approx(0.875)
        assert values[("m2", 3)] == pytest.approx(0.0)

    def test_constant_sco_normalizes_to_zero(self, tmp_path):
        steps = trace([dict(step=i + 1, fes=(i + 2) * 10, level=0.5, eps_min=0.0,
                            eps_mean=0.0, eps_max=0.0, reward=0.0, sco=5.0)
                       for i in range(3)])
        record = RunRecord(problem="p", dim=2, method="m", run=0, steps=steps)
        csv_path = export_curves([record], tmp_path)
        values = [float(ln.split(",")[-1]) for ln in
                  csv_path.read_text().splitlines()[1:]]
        assert values == [0.0, 0.0, 0.0]

    def test_fes_strictly_increasing(self, tmp_path):
        records = self._records()
        csv_path = export_curves(records, tmp_path)
        by_series: dict[tuple, list[int]] = {}
        for ln in csv_path.read_text().splitlines()[1:]:
            parts = ln.split(",")
            by_series.setdefault(tuple(parts[:3]), []).append(int(parts[4]))
        for fes in by_series.values():
            assert all(b > a for a, b in zip(fes, fes[1:]))

    def test_jsonl_roundtrip(self, tmp_path):
        records = self._records()
        path = tmp_path / "records.jsonl"
        write_records_jsonl(records, path)
        loaded = load_records_jsonl(path)
        assert len(loaded) == len(records)
        by_key = {(r.problem, r.dim, r.method, r.run): r for r in loaded}
        for r in records:
            other = by_key[(r.problem, r.dim, r.method, r.run)]
            assert other.final_sco == r.final_sco
            assert len(other.steps) == len(r.steps)
            assert other.steps.tobytes() == r.steps.tobytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_curves([], tmp_path)


class TestRunRecordEquality:
    """Records compare by identity and by the bytes of their steps."""

    @staticmethod
    def record(steps=None, **identity):
        steps = np.arange(24, dtype=float).reshape(3, 8) if steps is None else steps
        return RunRecord(**{"problem": "p", "dim": 2, "method": "m", "run": 0, **identity},
                         steps=steps)

    def test_equal_records(self):
        a, b = self.record(), self.record()
        assert a == b and not a != b
        nan = np.full((2, 8), np.nan)
        assert self.record(nan) == self.record(nan.copy())  # NaN equals NaN, as in the files

    def test_one_bit_in_one_step_differs(self):
        steps = self.record().steps.copy()
        steps[1, 6] = np.nextafter(steps[1, 6], np.inf)
        assert self.record() != self.record(steps)

    def test_identity_differs(self):
        for change in ({"problem": "q"}, {"dim": 3}, {"method": "n"}, {"run": 1}):
            assert self.record() != self.record(**change)

    def test_negative_zero_differs_from_zero(self):
        assert self.record(np.full((2, 8), -0.0)) != self.record(np.zeros((2, 8)))

    def test_shape_and_dtype_differ(self):
        steps = np.zeros((2, 8))
        assert self.record(steps) != self.record(steps.reshape(1, 16))
        assert self.record(steps) != self.record(np.zeros((2, 8), dtype=np.int64))

    def test_other_types_are_not_equal(self):
        record = self.record()
        assert record.__eq__("record") is NotImplemented
        assert record != "record" and record != None  # noqa: E711
        assert record != (record.problem, record.dim, record.method, record.run, record.steps)


# floats whose text is an edge of repr: a negative zero, the least subnormal,
# the largest finite double, 17 significant digits
EDGE_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1 / 3, -2.2250738585072014e-308)
any_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
# a step's values as the env makes them: step and fes exact integers below 2**53
trace_step = st.tuples(st.integers(0, 2**53 - 1), st.integers(0, 2**53 - 1),
                       *[any_float] * (len(STEP_COLUMNS) - 2))
# a run's (problem, dim, method, run) and its steps
run_trace = st.tuples(st.tuples(st.text(max_size=6), st.integers(1, 100),
                                st.sampled_from(["trained-agent", "static-eps"]),
                                st.integers(0, 9)),
                      st.lists(trace_step, max_size=4))


class TestTraceWriterBytes:
    """write_records_jsonl's file is json.dumps of each line, byte for byte."""

    @staticmethod
    def written(records) -> tuple[str, list[RunRecord]]:
        """The file's text and, when load_records_jsonl accepts it, its records."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            write_records_jsonl(records, path)
            try:
                return path.read_text(encoding="utf-8"), load_records_jsonl(path)
            except ValueError:  # a non-finite sco
                return path.read_text(encoding="utf-8"), []

    @settings(max_examples=300, deadline=None)
    @given(drawn=st.lists(run_trace, max_size=3, unique_by=lambda d: d[0]))
    def test_bytes_equal_json_dumps_per_line(self, drawn):
        records = [RunRecord(*key, np.array(steps, dtype=float).reshape(-1, len(STEP_COLUMNS)))
                   for key, steps in drawn]
        text, loaded = self.written(records)
        # the drawn values themselves: step and fes Python ints, the rest floats
        assert text == "".join(
            json.dumps({**dict(zip(("problem", "dim", "method", "run"), key)),
                        **dict(zip(STEP_COLUMNS, step))}) + "\n"
            for key, steps in drawn for step in steps)
        if all(math.isfinite(step[col("sco")]) for _, steps in drawn for step in steps):
            assert [(r.problem, r.dim, r.method, r.run) for r in loaded] == [
                (r.problem, r.dim, r.method, r.run) for r in records if len(r.steps)]
            for r, back in zip([r for r in records if len(r.steps)], loaded):
                assert back.steps.shape == r.steps.shape
                # as json.dumps tells -0.0 from 0.0; a NaN's payload is not written
                assert json.dumps(back.steps.tolist()) == json.dumps(r.steps.tolist())

    def test_non_finite_step_raises_as_int_does(self):
        steps = trace([dict(step=np.nan, fes=10, level=0.5, eps_min=0.0, eps_mean=0.0,
                            eps_max=0.0, reward=0.0, sco=1.0)])
        with pytest.raises(ValueError) as expected:
            int(np.nan)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            self.written([RunRecord("p", 2, "m", 0, steps)])
