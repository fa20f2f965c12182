import pytest

from rlrelax.config import ConfigError, ExperimentConfig, load_config, parse_config_text
from rlrelax.harness import _hash_instances


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
        assert cfg.problems == ["synthetic/sphere-linear/0",
                                "synthetic/rastrigin-ring/1", "cec12"]
        assert cfg.dims == [10]
        assert cfg.runs == 3 and cfg.seed == 7 and cfg.epochs == 5
        assert cfg.lpsr is False

    def test_defaults_stand(self):
        cfg = parse_config_text("problems = cec12\n")
        assert cfg.pop_size == 50
        assert cfg.maxfes_per_dim == 50
        assert cfg.runs == 10
        assert cfg.epochs == 50
        assert cfg.lr_start == 5e-3 and cfg.lr_end == 1e-4
        assert cfg.discount == 1.0
        assert cfg.target_sync_period == 10

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("problms = cec12\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="runs"):
            parse_config_text("runs = many\n")

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_text("lpsr = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("problems cec12\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("\n# hi\nproblems = cec12  # trailing\n\n")
        assert cfg.problems == ["cec12"]

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


class TestDerived:
    def test_maxfes_rule(self):
        cfg = ExperimentConfig()
        assert cfg.maxfes(10) == 500
        assert cfg.maxfes(50) == 2500

    def test_train_config_roundtrip(self):
        cfg = ExperimentConfig(epochs=7, lr_start=1e-2, lr_end=1e-3)
        tc = cfg.train_config()
        assert tc.max_epoch == 7
        assert tc.lr_start == 1e-2

    def test_problem_set_hash_stable_and_order_sensitive(self):
        a = _hash_instances(["cec12", "cec14"], [10])
        assert a == _hash_instances(["cec12", "cec14"], [10])
        assert a != _hash_instances(["cec14", "cec12"], [10])
        # the training problems of the committed benchmark checkpoint
        names = [f"synthetic/{n}" for n in ("sphere-linear/0", "rastrigin-ring/1",
                                            "ackley-ellipsoid/2", "griewank-plane/3",
                                            "schwefel-band/4")]
        assert _hash_instances(names, [10]) == 957165374
