import dataclasses
import json

import numpy as np
import pytest

from rlrelax.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from rlrelax.problems import ProblemRegistry


TOY = """
problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1
train_problems = synthetic/sphere-linear/0
test_problems = synthetic/rastrigin-ring/1
dims = 4
pop_size = 20
maxfes_per_dim = 20
runs = 1
seed = 3
epochs = 1
buffer_capacity = 64
batch_size = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY)
    return path


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problms = cec12\n")
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG

    def test_runtime_failure(self, cfg_path, tmp_path):
        # evaluating a nonexistent checkpoint is a runtime failure
        code = main(["evaluate", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "none.txt"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME

    def test_non_utf8_checkpoint_names_its_file(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        ckpt.write_bytes(b"\xff\n")
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert f"error: checkpoint {ckpt}: 'utf-8' codec" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_checkpoint_names_its_file(self, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.txt"
        ckpt.write_text("rleceo-ckpt v1\n")
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert f"error: checkpoint {ckpt}: missing shapes line" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_larger_than_buffer_is_config_error(self, tmp_path):
        # such a buffer never holds a batch, so training would take no step
        path = tmp_path / "bad.cfg"
        path.write_text(TOY.replace("buffer_capacity = 64", "buffer_capacity = 2"))
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_unknown_baseline_is_config_error(self, cfg_path, tmp_path):
        code = main(["baseline", "--config", str(cfg_path), "--name", "magic",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_bad_dims_override_is_config_error(self, cfg_path, tmp_path, capsys):
        # the same value exits 2 from the config file, so it does from --dims
        out = tmp_path / "out"
        code = main(["baseline", "--config", str(cfg_path), "--name", "static-eps",
                     "--dims", "4,abc", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--dims" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "epochs = 0", "dims =", "delta = 0", "delta_acc = -1",
        # non-finite floats and a negative seed pass a plain range check
        "delta = inf", "delta_acc = inf", "sched_power = inf", "seed = -1",
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TOY + line + "\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    # the learner's training schedule is fixed in rlrelax.agent, not set per config
    @pytest.mark.parametrize("line", [
        "lr_start = 5e-3", "lr_end = 1e-4", "discount = 1.0", "target_sync_period = 10",
        "explore_start = 0.9", "explore_end = 0.05", "explore_fraction = 0.8",
    ])
    def test_fixed_schedule_key_is_unknown(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TOY + line + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        key = line.split(" =")[0]
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_is_config_error(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_replaces_a_file_value_before_the_check(self, tmp_path):
        # the file's seed is never checked on its own: the config that runs is
        path = tmp_path / "toy.cfg"
        path.write_text(TOY.replace("seed = 3", "seed = -1"))
        out = tmp_path / "out"
        assert main(["baseline", "--config", str(path), "--name", "static-eps",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert (out / "baseline_static-eps.csv").exists()

    def test_dims_flag_is_checked_against_the_problems(self, tmp_path, capsys):
        path = tmp_path / "toy.cfg"
        path.write_text(TOY + "problems = cec12\n")
        out = tmp_path / "out"
        assert main(["baseline", "--config", str(path), "--name", "static-eps",
                     "--dims", "20", "--out", str(out)]) == EXIT_CONFIG
        assert "cec12 supports dims [10, 30, 50, 100], got 20" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"seed = 3\n\xff\n"),
    ], ids=["directory", "non-utf8"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, make):
        path = tmp_path / "exp.cfg"
        make(path)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert f"config file {path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, args", [
        ("train", []), ("evaluate", ["--checkpoint", "none.txt"]),
        ("baseline", ["--name", "static-eps"]), ("loo", []), ("split", []),
        ("ablate", ["--variant", "no-train"]), ("export-curves", []),
    ])
    @pytest.mark.parametrize("lines, message", [
        ("static_level = 1.5", "static_level must be in [0, 1]"),
        ("runs = 0", "runs must be >= 1"),
        ("sched_power = nan", "sched_power must be finite, got nan"),
        ("batch_size = 0", "need 1 <= batch_size <= buffer_capacity"),
        ("shift_file = {bad_shift}", "bad.shift line 2: bad header line 'cec12 abc'"),
        ("shift_file = {missing_shift}", "missing.shift"),
        ("problems = synthetic/sphere-linear/0, cec13", "unknown problem 'cec13'"),
        ("test_problems = synthetic/sphere-linear/x", "bad synthetic seed"),
        ("problems = cec12\ndims = 20", "cec12 supports dims [10, 30, 50, 100], got 20"),
        ("pop_size = 4\nmaxfes_per_dim = 8\ndims = 1", "synthetic problems need dim >= 2"),
        # a repeat would run every run twice and merge the copies into one record
        ("problems = synthetic/sphere-linear/0, synthetic/sphere-linear/0",
         "problems lists 'synthetic/sphere-linear/0' more than once"),
        ("dims = 4, 4", "dims lists 4 more than once"),
    ])
    def test_rejected_at_load_before_out_is_created(self, tmp_path, capsys, verb, args,
                                                    lines, message):
        bad_shift = tmp_path / "bad.shift"
        bad_shift.write_text("# header with a non-integer dim\ncec12 abc\n1.0 2.0\n")
        lines = lines.format(bad_shift=bad_shift, missing_shift=tmp_path / "missing.shift")
        path = tmp_path / "bad.cfg"
        path.write_text(TOY + lines + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([verb, "--config", str(path), "--out", str(out), *args]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    # a rejected problem list or variant creates nothing, like a rejected config
    @pytest.mark.parametrize("verb, args, lines, message", [
        ("train", [], "problems =\ntrain_problems =", "non-empty problem list"),
        ("baseline", ["--name", "static-eps"], "problems =\ntest_problems =",
         "non-empty problem list"),
        ("loo", [], "problems = synthetic/sphere-linear/0", "at least two problems"),
        ("split", [], "test_problems =", "must be non-empty"),
        ("split", [], "test_problems = synthetic/sphere-linear/0", "overlap"),
        ("ablate", ["--variant", "no-state"], "train_problems =", "must be non-empty"),
        ("ablate", ["--variant", "r1"], "test_problems = synthetic/sphere-linear/0",
         "overlap"),
        ("ablate", ["--variant", "bogus"], "", "unknown ablation 'bogus'"),
        # the whole --variant list is checked before the full method trains
        ("ablate", ["--variant", "no-state,r1,bogus"], "", "unknown ablation 'bogus'"),
        ("ablate", ["--variant", "r1, aa,r1"], "", "ablations list 'r1' more than once"),
        ("ablate", ["--variant", ","], "", "no ablation given"),
    ])
    def test_list_fault_creates_no_out(self, tmp_path, capsys, verb, args, lines, message):
        path = tmp_path / "bad.cfg"
        path.write_text(TOY + lines + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([verb, "--config", str(path), "--out", str(out), *args]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestFailedRunIsNamed:
    """Every verb reports which (problem, dim, run or epoch) raised."""

    @pytest.mark.parametrize("verb, args, context", [
        ("train", [], "training on synthetic/sphere-linear/0 (dim 4, epoch 0)"),
        ("evaluate", ["--checkpoint"],
         "trained-agent on synthetic/rastrigin-ring/1 (dim 4, run 0)"),
        ("baseline", ["--name", "scheduled-eps"],
         "scheduled-eps[5] on synthetic/rastrigin-ring/1 (dim 4, run 0)"),
        ("loo", [], "training on synthetic/rastrigin-ring/1 (dim 4, epoch 0)"),
        ("split", [], "training on synthetic/sphere-linear/0 (dim 4, epoch 0)"),
        ("ablate", ["--variant", "no-train"],
         "training on synthetic/sphere-linear/0 (dim 4, epoch 0)"),
    ])
    def test_second_batch_non_finite(self, cfg_path, tmp_path, monkeypatch, capsys,
                                     verb, args, context):
        if verb == "evaluate":
            assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK
            args = args + [str(tmp_path / "checkpoint.txt")]
        lookup = ProblemRegistry.lookup

        def faulty_lookup(registry, name, dim):
            problem, batches = lookup(registry, name, dim), []

            def evaluator(X):
                batches.append(len(X))
                f, C = problem.evaluator(X)
                return (f * np.nan if len(batches) == 2 else f), C

            return dataclasses.replace(problem, evaluator=evaluator)

        monkeypatch.setattr(ProblemRegistry, "lookup", faulty_lookup)
        capsys.readouterr()
        code = main([verb, "--config", str(cfg_path), "--out", str(tmp_path / "out"), *args])
        err = capsys.readouterr().err
        assert code == EXIT_RUNTIME
        assert context in err and "row 0: non-finite" in err


class TestVerbs:
    def test_train_then_evaluate_then_curves(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        ckpt = out / "checkpoint.txt"
        assert ckpt.exists()
        assert (out / "train_log.jsonl").exists()

        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                     "--checkpoint", str(ckpt)]) == EXIT_OK
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "problem,dim,method,mean,std,min,runs"
        assert len(results) > 1

        assert main(["export-curves", "--config", str(cfg_path),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "curves.csv").exists()
        assert not (out / "curves.jsonl").exists()  # records.jsonl already holds the traces

    def test_baseline_verb(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["baseline", "--config", str(cfg_path), "--out", str(out),
                     "--name", "feasibility-rule"])
        assert code == EXIT_OK
        assert (out / "baseline_feasibility-rule.csv").exists()
        for line in (out / "records_feasibility-rule.jsonl").read_text().splitlines():
            row = json.loads(line)
            assert row["eps_max"] == 0.0

    def test_loo_verb(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["loo", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "loo_results.csv").exists()

    def test_split_verb(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["split", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "split_results.csv").exists()

    def test_ablate_verb(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["ablate", "--config", str(cfg_path), "--out", str(out),
                     "--variant", "no-train"])
        assert code == EXIT_OK
        assert (out / "ablate_no-train.csv").exists()

    def test_flag_overrides(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["baseline", "--config", str(cfg_path), "--out", str(out),
                     "--name", "feasibility-rule", "--runs", "2", "--seed", "9"])
        assert code == EXIT_OK
        rows = (out / "baseline_feasibility-rule.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",2") for row in rows)

    def test_each_verb_resolves_its_problems_once(self, cfg_path, tmp_path, monkeypatch):
        built = []
        init = ProblemRegistry.__init__

        def counted(registry, *args, **kwargs):
            built.append(registry)
            init(registry, *args, **kwargs)

        monkeypatch.setattr(ProblemRegistry, "__init__", counted)
        out = str(tmp_path / "out")
        for argv in (["train"], ["evaluate", "--checkpoint", f"{out}/checkpoint.txt"],
                     ["baseline", "--name", "static-eps"], ["export-curves"]):
            built.clear()
            assert main([*argv, "--config", str(cfg_path), "--out", out]) == EXIT_OK
            assert len(built) == 1, argv[0]

    @pytest.mark.parametrize("line, fault", [
        ('{"problem": "a"}', "missing key 'dim'"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('"a"', "not a JSON object"),
        # the good line with one value retyped; a string sco would reach export_curves' arithmetic
        ({"sco": "x"}, "sco must be a finite number, got 'x'"),
        ({"sco": float("inf")}, "sco must be a finite number, got inf"),
        ({"dim": True}, "dim must be an int, got True"),
        ({"fes": 40.0}, "fes must be an int, got 40.0"),
        # the step record is float: an int it cannot hold exactly is refused
        ({"fes": 2**53}, "fes must be below 2**53 in magnitude, the float record's exact "
                         "range, got 9007199254740992"),
        ({"level": -10**400}, "level must be below 2**53 in magnitude"),
        ({"level": None}, "level must be a number, got None"),
        ({"problem": ["a"]}, "problem must be a string, got ['a']"),
    ])
    def test_export_names_the_malformed_records_line(self, cfg_path, tmp_path, capsys,
                                                     line, fault):
        out = tmp_path / "out"
        assert main(["baseline", "--config", str(cfg_path), "--out", str(out),
                     "--name", "static-eps"]) == EXIT_OK
        good = (out / "records_static-eps.jsonl").read_text().splitlines()[0]
        if isinstance(line, dict):
            line = json.dumps({**json.loads(good), **line})
        records = out / "records.jsonl"
        records.write_text(f"{good}\n{line}\n")
        capsys.readouterr()
        code = main(["export-curves", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert f"error: {records} line 2: {fault}" in capsys.readouterr().err

    def test_export_without_records_is_config_error(self, cfg_path, tmp_path):
        code = main(["export-curves", "--config", str(cfg_path),
                     "--out", str(tmp_path / "empty")])
        assert code == EXIT_CONFIG

    def test_loo_byte_identical_through_cli(self, cfg_path, tmp_path):
        for label in ("a", "b"):
            assert main(["loo", "--config", str(cfg_path),
                         "--out", str(tmp_path / label)]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names  # checkpoints, records, train log, results table
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()
