import dataclasses
import re
from pathlib import Path

import pytest

from rlrelax.config import (ConfigError, ExperimentConfig, load_config, parse_config_text,
                            parse_value)
from rlrelax.harness import _hash_instances
from rlrelax.problems import ProblemRegistry


GOOD = """
# toy experiment
problems = synthetic/sphere-linear/0, synthetic/rastrigin-ring/1, cec12
dims = 10
pop_size = 50
runs = 3
seed = 7
epochs = 5
action_scheme = exponential
reward_variant = full
lpsr = false
out_dir = out
"""


class TestParsing:
    def test_good_file(self):
        cfg = parse_config_text(GOOD)
        assert cfg.problems == ("synthetic/sphere-linear/0",
                                "synthetic/rastrigin-ring/1", "cec12")
        assert cfg.dims == (10,)
        assert cfg.runs == 3 and cfg.seed == 7 and cfg.epochs == 5
        assert cfg.lpsr is False

    def test_defaults_stand(self):
        cfg = parse_config_text("problems = cec12\n")
        assert cfg.pop_size == 50
        assert cfg.maxfes_per_dim == 50
        assert cfg.runs == 10
        assert cfg.epochs == 50
        assert cfg.buffer_capacity == 4096 and cfg.batch_size == 64

    def test_parse_value_types_by_field(self):
        assert parse_value("dims", " 10, 30,") == [10, 30]
        assert parse_value("pop_size", "7") == 7
        assert parse_value("static_level", "0.25") == 0.25
        assert parse_value("lpsr", "on") is True
        with pytest.raises(ValueError):
            parse_value("dims", "4,abc")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("problms = cec12\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="runs"):
            parse_config_text("runs = many\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="^line 1: lpsr: expected a boolean, got 'maybe'$"):
            parse_config_text("lpsr = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("problems cec12\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("\n# hi\nproblems = cec12  # trailing\n\n")
        assert cfg.problems == ("cec12",)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(GOOD)
        cfg = load_config(path)
        assert cfg.seed == 7


class TestValidation:
    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="action_scheme"):
            parse_config_text("action_scheme = cubic\n")

    def test_bad_reward_variant(self):
        with pytest.raises(ConfigError, match="reward_variant"):
            parse_config_text("reward_variant = r9\n")

    def test_budget_below_two_generations(self):
        with pytest.raises(ConfigError, match="two generations"):
            parse_config_text("dims = 1\n")

    def test_static_level_range(self):
        with pytest.raises(ConfigError, match="static_level"):
            parse_config_text("static_level = 1.5\n")

    def test_runs_positive(self):
        with pytest.raises(ConfigError, match="runs"):
            parse_config_text("runs = 0\n")

    @pytest.mark.parametrize("text, message", [
        ("epochs = 0", "epochs must be >= 1"),
        ("static_level = -0.1", "static_level must be in [0, 1]"),
        ("sched_power = 0", "sched_power must be positive"),
        ("static_level = nan", "static_level must be finite, got nan"),
        ("batch_size = 0", "need 1 <= batch_size <= buffer_capacity"),
        ("batch_size = 65\nbuffer_capacity = 64", "need 1 <= batch_size <= buffer_capacity"),
        ("pop_size = 3", "pop_size must be >= 4"),
        ("delta = inf", "delta must be finite, got inf"),
        ("delta_acc = inf", "delta_acc must be finite, got inf"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("train_problems = cec14, cec14", "train_problems lists 'cec14' more than once"),
        ("test_problems = cec12, cec14, cec14", "test_problems lists 'cec14' more than once"),
    ])
    def test_training_ranges(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(text + "\n")


class TestCheckedWhenBuilt:
    def test_fields_cannot_be_assigned(self):
        cfg = ExperimentConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_lists_are_tuples(self):
        cfg = ExperimentConfig(problems=["cec12"])
        with pytest.raises(AttributeError):
            cfg.dims.append(20)
        assert dataclasses.replace(cfg, dims=[30]).dims == (30,)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ConfigError, match="runs must be >= 1"):
            dataclasses.replace(ExperimentConfig(), runs=0)

    def test_unknown_problem_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="unknown problem 'cec13'"):
            ExperimentConfig(problems=["cec13"])

    def test_registry_holds_the_resolved_problems(self, monkeypatch):
        lookups, lookup = [], ProblemRegistry.lookup

        def counted(registry, name, dim):
            lookups.append((name, dim))
            return lookup(registry, name, dim)

        monkeypatch.setattr(ProblemRegistry, "lookup", counted)
        assert ExperimentConfig() == ExperimentConfig() and not lookups  # builds no problem
        cfg = ExperimentConfig(problems=["cec12"], test_problems=["cec14", "cec12"],
                               dims=[10, 30])
        assert lookups == [("cec12", 10), ("cec12", 30), ("cec14", 10), ("cec14", 30)]
        assert cfg.registry is cfg.registry
        assert cfg.registry.lookup("cec14", 30).dim == 30


class TestDerived:
    def test_maxfes_rule(self):
        cfg = ExperimentConfig()
        assert cfg.maxfes(10) == 500
        assert cfg.maxfes(50) == 2500

    def test_problem_set_hash_stable_and_order_sensitive(self):
        a = _hash_instances(["cec12", "cec14"], [10])
        assert a == _hash_instances(["cec12", "cec14"], [10])
        assert a != _hash_instances(["cec14", "cec12"], [10])
        # the training problems of the committed benchmark checkpoint
        names = [f"synthetic/{n}" for n in ("sphere-linear/0", "rastrigin-ring/1",
                                            "ackley-ellipsoid/2", "griewank-plane/3",
                                            "schwefel-band/4")]
        assert _hash_instances(names, [10]) == 957165374


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeConfigBlock:
    """The README's config block lists every key with its default."""

    def block(self):
        text = README.read_text(encoding="utf-8")
        return re.search(r"## Config file.*?```ini\n(.*?)```", text, re.S).group(1)

    def test_keys_are_the_fields(self):
        keys = [line.split("=", 1)[0].strip() for line in self.block().splitlines()
                if "=" in line.split("#", 1)[0]]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    def test_values_are_the_defaults(self):
        assert parse_config_text(self.block()) == ExperimentConfig()
