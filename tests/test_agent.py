import numpy as np
import pytest

from rlrelax.agent import (
    SELU_LAMBDA,
    CheckpointMetadata,
    CheckpointParseError,
    CheckpointShapeError,
    CheckpointVersionError,
    NetworkParams,
    ReplayBuffer,
    act_eps_greedy,
    cosine_lr,
    explore_rate,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    loss_and_grad,
    loss_with_fixed_targets,
    save_checkpoint,
    selu,
    sgd_step,
    sync_target,
    td_target,
)
from rlrelax.config import ExperimentConfig
from rlrelax.env import Transition


def random_transition(rng, n_actions=11, terminal=False):
    return Transition(
        state=rng.normal(size=10),
        action=int(rng.integers(n_actions)),
        reward=float(rng.uniform()),
        next_state=rng.normal(size=10),
        terminal=terminal,
    )


def numerical_gradient(batch, params, target, discount, h=1e-5):
    """Central finite differences on every parameter (the independent oracle).

    The temporal-difference targets are computed once and held fixed, the
    same constants the analytic gradient differentiates against.
    """
    states = np.stack([tr.state for tr in batch])
    actions = np.array([tr.action for tr in batch])
    ys = np.array([td_target(tr, params, target, discount) for tr in batch])
    grads = NetworkParams(*(np.zeros_like(a) for a in params.arrays()))
    for p_arr, g_arr in zip(params.arrays(), grads.arrays()):
        flat_p = p_arr.ravel()
        flat_g = g_arr.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            lo_plus, _ = loss_with_fixed_targets(states, actions, ys, params)
            flat_p[i] = orig - h
            lo_minus, _ = loss_with_fixed_targets(states, actions, ys, params)
            flat_p[i] = orig
            flat_g[i] = (lo_plus - lo_minus) / (2 * h)
    return grads


class TestForward:
    def test_zero_params_give_half(self):
        params = NetworkParams(np.zeros((64, 10)), np.zeros(64),
                               np.zeros((11, 64)), np.zeros(11))
        q = forward(np.ones(10), params)
        assert np.allclose(q, 0.5)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = init_params(rng=rng)
            q = forward(rng.normal(size=10), params)
            assert q.shape == (11,)
            assert np.all(q > 0.0) and np.all(q < 1.0)

    def test_one_unit_toy_value(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1),
                               np.array([[1.0]]), np.zeros(1))
        q = forward(np.array([1.0]), params)
        expect = 1.0 / (1.0 + np.exp(-SELU_LAMBDA))
        assert q[0] == pytest.approx(expect, rel=1e-12)
        assert q[0] == pytest.approx(0.7409, abs=5e-5)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        params = init_params(rng=rng)
        states = rng.normal(size=(6, 10))
        batch_q = forward_batch(states, params)
        for i in range(6):
            assert np.allclose(batch_q[i], forward(states[i], params))

    def test_nonfinite_state_rejected(self):
        params = init_params(rng=np.random.default_rng(2))
        s = np.ones(10)
        s[3] = np.nan
        with pytest.raises(ValueError):
            forward(s, params)

    def test_selu_negative_branch(self):
        x = np.array([-1.0])
        expect = SELU_LAMBDA * 1.6732632423543772 * (np.exp(-1.0) - 1.0)
        assert selu(x)[0] == pytest.approx(expect, rel=1e-12)


class TestActEpsGreedy:
    def test_greedy_takes_argmax(self):
        q = np.zeros(11)
        q[7] = 0.9
        assert act_eps_greedy(q, 0.0, np.random.default_rng(0)) == 7

    def test_tie_breaks_to_lowest_index(self):
        q = np.full(11, 0.5)
        assert act_eps_greedy(q, 0.0, np.random.default_rng(0)) == 0

    def test_full_exploration_roughly_uniform(self):
        rng = np.random.default_rng(3)
        q = np.zeros(11)
        q[2] = 1.0
        counts = np.zeros(11)
        n = 10_000
        for _ in range(n):
            counts[act_eps_greedy(q, 1.0, rng)] += 1
        expected = n / 11
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 30.0  # 10 dof, generous threshold


class TestTdTarget:
    def test_terminal_is_reward(self):
        rng = np.random.default_rng(4)
        tr = random_transition(rng, terminal=True)
        tr = Transition(tr.state, tr.action, 0.25, tr.next_state, True)
        params = init_params(rng=rng)
        assert td_target(tr, params, params.copy(), 1.0) == 0.25

    def test_double_estimator_hand_value(self):
        rng = np.random.default_rng(5)
        online = init_params(rng=rng)
        target = init_params(rng=rng)
        tr = random_transition(rng)
        tr = Transition(tr.state, tr.action, 0.25, tr.next_state, False)
        a_next = int(np.argmax(forward(tr.next_state, online)))
        expect = 0.25 + forward(tr.next_state, target)[a_next]
        assert td_target(tr, online, target, 1.0) == pytest.approx(expect, rel=1e-15)

    def test_zero_discount(self):
        rng = np.random.default_rng(6)
        params = init_params(rng=rng)
        tr = random_transition(rng)
        assert td_target(tr, params, params.copy(), 0.0) == tr.reward

    def test_same_network_reduces_to_max_target(self):
        rng = np.random.default_rng(7)
        params = init_params(rng=rng)
        tr = random_transition(rng)
        y = td_target(tr, params, params, 1.0)
        vanilla = tr.reward + float(np.max(forward(tr.next_state, params)))
        assert y == pytest.approx(vanilla, rel=1e-15)


class TestLossAndGrad:
    def test_exact_prediction_zero_loss_zero_grad(self):
        rng = np.random.default_rng(8)
        params = init_params(rng=rng)
        tr = random_transition(rng, terminal=True)
        # rig the reward to equal the current prediction exactly
        q = forward(tr.state, params)
        tr = Transition(tr.state, tr.action, float(q[tr.action]), tr.next_state, True)
        loss, grads = loss_and_grad([tr], params, params.copy(), 1.0)
        assert loss == 0.0
        for g in grads.arrays():
            assert np.all(g == 0.0)

    def test_one_unit_toy_loss(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1),
                               np.array([[1.0]]), np.zeros(1))
        tr = Transition(np.array([1.0]), 0, 1.0, np.array([0.0]), True)
        loss, _ = loss_and_grad([tr], params, params.copy(), 1.0)
        q = 1.0 / (1.0 + np.exp(-SELU_LAMBDA))
        assert loss == pytest.approx((1.0 - q) ** 2, rel=1e-12)
        assert loss == pytest.approx(0.0671, abs=5e-4)

    def test_gradient_matches_finite_differences_small_net(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            params = init_params(n_in=4, n_hidden=6, n_out=3, rng=rng)
            target = init_params(n_in=4, n_hidden=6, n_out=3, rng=rng)
            batch = [
                Transition(rng.normal(size=4), int(rng.integers(3)),
                           float(rng.uniform()), rng.normal(size=4),
                           bool(rng.integers(2)))
                for _ in range(4)
            ]
            _, analytic = loss_and_grad(batch, params, target, 1.0)
            numeric = numerical_gradient(batch, params, target, 1.0)
            for a, n in zip(analytic.arrays(), numeric.arrays()):
                rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n),
                                                         np.full_like(a, 1e-6)])
                assert np.max(rel) < 1e-4

    def test_empty_batch_rejected(self):
        params = init_params(rng=np.random.default_rng(10))
        with pytest.raises(ValueError):
            loss_and_grad([], params, params.copy(), 1.0)


class TestSgdAndSchedules:
    def test_zero_grad_no_change(self):
        params = init_params(rng=np.random.default_rng(11))
        before = [a.copy() for a in params.arrays()]
        zero = NetworkParams(*(np.zeros_like(a) for a in params.arrays()))
        sgd_step(params, zero, 0.1)
        for a, b in zip(params.arrays(), before):
            assert np.array_equal(a, b)

    def test_single_weight_update(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1),
                               np.array([[1.0]]), np.zeros(1))
        grads = NetworkParams(np.array([[2.0]]), np.zeros(1),
                              np.zeros((1, 1)), np.zeros(1))
        sgd_step(params, grads, 0.1)
        assert params.w1[0, 0] == pytest.approx(0.8)

    def test_two_steps_compose_linearly(self):
        params = NetworkParams(np.array([[1.0]]), np.zeros(1),
                               np.array([[1.0]]), np.zeros(1))
        grads = NetworkParams(np.array([[2.0]]), np.zeros(1),
                              np.zeros((1, 1)), np.zeros(1))
        sgd_step(params, grads, 0.1)
        sgd_step(params, grads, 0.1)
        assert params.w1[0, 0] == pytest.approx(1.0 - 2 * 0.1 * 2.0)

    def test_cosine_schedule(self):
        cfg = ExperimentConfig()
        assert cosine_lr(0, cfg) == pytest.approx(5e-3, rel=1e-15)
        assert cosine_lr(50, cfg) == pytest.approx(1e-4, rel=1e-15)
        assert cosine_lr(25, cfg) == pytest.approx((5e-3 + 1e-4) / 2, rel=1e-12)

    def test_explore_schedule(self):
        cfg = ExperimentConfig()
        assert explore_rate(0, 1000, cfg) == pytest.approx(0.9)
        assert explore_rate(800, 1000, cfg) == pytest.approx(0.05)
        assert explore_rate(1000, 1000, cfg) == pytest.approx(0.05)
        mid = explore_rate(400, 1000, cfg)
        assert 0.05 < mid < 0.9

    def test_overfit_single_transition(self):
        rng = np.random.default_rng(12)
        params = init_params(rng=rng)
        tr = Transition(rng.normal(size=10), 4, 0.8, np.zeros(10), True)
        target = params.copy()
        loss = np.inf
        for _ in range(2000):
            loss, grads = loss_and_grad([tr], params, target, 1.0)
            if loss < 1e-4:
                break
            sgd_step(params, grads, 1e-2)
        assert loss < 1e-4


class TestSyncTarget:
    def test_copy_and_idempotence(self):
        rng = np.random.default_rng(13)
        online = init_params(rng=rng)
        target = init_params(rng=rng)
        sync_target(online, target)
        s = rng.normal(size=10)
        assert np.array_equal(forward(s, online), forward(s, target))
        snapshot = [a.copy() for a in target.arrays()]
        sync_target(online, target)
        for a, b in zip(target.arrays(), snapshot):
            assert np.array_equal(a, b)

    def test_target_constant_between_syncs(self):
        rng = np.random.default_rng(14)
        online = init_params(rng=rng)
        target = online.copy()
        snapshot = [a.copy() for a in target.arrays()]
        grads = NetworkParams(*(np.ones_like(a) for a in online.arrays()))
        sgd_step(online, grads, 0.01)
        for a, b in zip(target.arrays(), snapshot):
            assert np.array_equal(a, b)


class TestReplayBuffer:
    def test_ring_overwrite(self):
        rng = np.random.default_rng(15)
        buf = ReplayBuffer(4)
        for _ in range(10):
            buf.push(random_transition(rng))
        assert len(buf) == 4

    def test_sample_without_replacement(self):
        rng = np.random.default_rng(16)
        buf = ReplayBuffer(16)
        for i in range(16):
            tr = random_transition(rng)
            buf.push(Transition(tr.state, i % 11, float(i), tr.next_state, False))
        batch = buf.sample(16, rng)
        rewards = sorted(tr.reward for tr in batch)
        assert rewards == [float(i) for i in range(16)]

    def test_sample_too_large(self):
        buf = ReplayBuffer(4)
        with pytest.raises(ValueError):
            buf.sample(1, np.random.default_rng(0))


class TestCheckpoint:
    def meta(self):
        return CheckpointMetadata(action_scheme="exponential", f_agentbest=1.25,
                                  seed=3, epochs=50, extra={"problem_set_hash": "42"})

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        params = init_params(rng=rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(params, self.meta(), path)
        loaded, meta = load_checkpoint(path)
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)
        assert meta.action_scheme == "exponential"
        assert meta.f_agentbest == 1.25
        assert meta.seed == 3 and meta.epochs == 50
        assert meta.extra["problem_set_hash"] == "42"

    def test_truncated_file_is_parse_error(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=rng), self.meta(), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:100]) + "\n")
        with pytest.raises(CheckpointParseError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("some-other-format v9\n")
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_garbage_value_is_parse_error(self, tmp_path):
        rng = np.random.default_rng(19)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=rng), self.meta(), path)
        lines = path.read_text().splitlines()
        lines[10] = "not-a-number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointParseError):
            load_checkpoint(path)

    def edited_metadata(self, tmp_path, token, replacement):
        """A saved checkpoint with one token of its metadata line replaced."""
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=np.random.default_rng(24)), self.meta(), path)
        lines = path.read_text().splitlines()
        assert token in lines[2].split()
        lines[2] = " ".join(replacement if t == token else t for t in lines[2].split())
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("key, token", [("seed", "seed=3"), ("epochs", "epochs=50"),
                                            ("f_agentbest", "f_agentbest=1.25")])
    def test_non_numeric_metadata_names_the_key(self, tmp_path, key, token):
        path = self.edited_metadata(tmp_path, token, f"{key}=x7")
        with pytest.raises(CheckpointParseError, match=f"metadata {key}:"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_f_agentbest_is_parse_error(self, tmp_path, value):
        # a nan here would make every evaluation step's r1 zero
        path = self.edited_metadata(tmp_path, "f_agentbest=1.25", f"f_agentbest={value}")
        with pytest.raises(CheckpointParseError, match="f_agentbest: non-finite"):
            load_checkpoint(path)

    def test_shapes_follow_action_space(self, tmp_path):
        rng = np.random.default_rng(20)
        params = init_params(n_out=7, rng=rng)  # aggressive-adjustment head
        meta = CheckpointMetadata(action_scheme="linear-aa", f_agentbest=0.0,
                                  seed=0, epochs=1)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(params, meta, path)
        loaded, meta2 = load_checkpoint(path)
        assert loaded.shapes == (10, 64, 7)
        assert meta2.action_scheme == "linear-aa"

    def test_nonfinite_weight_is_parse_error(self, tmp_path):
        # a nan weight would make forward return NaN and argmax pick level 0
        rng = np.random.default_rng(22)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=rng), self.meta(), path)
        lines = path.read_text().splitlines()
        lines[10] = "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointParseError, match="non-finite"):
            load_checkpoint(path)

    def test_unknown_scheme_is_parse_error(self, tmp_path):
        rng = np.random.default_rng(23)
        meta = CheckpointMetadata(action_scheme="quadratic", f_agentbest=0.0,
                                  seed=0, epochs=1)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=rng), meta, path)
        with pytest.raises(CheckpointParseError, match="quadratic"):
            load_checkpoint(path)

    def test_wrong_input_size_is_shape_error(self, tmp_path):
        # a 9-input network would load, then fail inside the first run's forward
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(n_in=9, rng=np.random.default_rng(25)), self.meta(), path)
        with pytest.raises(CheckpointShapeError, match="10 features, file declares 9 inputs"):
            load_checkpoint(path)

    def test_scheme_head_mismatch_is_shape_error(self, tmp_path):
        # a 7-output head claiming the 11-action scheme is inconsistent
        rng = np.random.default_rng(21)
        params = init_params(n_out=7, rng=rng)
        meta = CheckpointMetadata(action_scheme="exponential", f_agentbest=0.0,
                                  seed=0, epochs=1)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(params, meta, path)
        with pytest.raises(CheckpointShapeError):
            load_checkpoint(path)
