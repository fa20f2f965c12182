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
batch_size = 8
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

    def test_batch_larger_than_buffer_is_config_error(self, tmp_path):
        # such a buffer never holds a batch, so training would take no step
        path = tmp_path / "bad.cfg"
        path.write_text(TOY.replace("buffer_capacity = 64", "buffer_capacity = 4"))
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
        "explore_start = 1.5", "explore_end = -0.1", "explore_fraction = 1.01",
    ])
    def test_out_of_range_value_is_config_error(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TOY + line + "\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "checkpoint.txt").exists()


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
