import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlrelax import agent, cop, env, features, harness, lshade, problems
from rlrelax.agent import (
    HIDDEN_SIZE,
    SELU_LAMBDA,
    STATE_SIZE,
    Batch,
    CheckpointMetadata,
    CheckpointParseError,
    CheckpointShapeError,
    CheckpointVersionError,
    NetworkParams,
    ReplayBuffer,
    Transition,
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
from reference import ListReplayBuffer
from reference import loss_with_fixed_targets as reference_loss_with_fixed_targets
from reference import wrapped_loss_and_grad


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 128),
           log_scale=st.floats(-3.0, 2.0))
    def test_batch_matches_single(self, seed, n, log_scale):
        # bit for bit: the learner's batched targets stand in for td_target's
        rng = np.random.default_rng(seed)
        params = init_params(rng=rng)
        states = rng.normal(size=(n, 10)) * 10.0 ** log_scale
        batch_q = forward_batch(states, params)
        assert batch_q.shape == (n, 11)
        for i in range(n):
            assert np.array_equal(batch_q[i], forward(states[i], params))

    @pytest.mark.parametrize("nets", [1, 2])
    @pytest.mark.parametrize("n", [1, 10, 64])
    def test_stacked_nets_match_each_net(self, nets, n):
        # the learner prices its targets under online and target net in one call
        rng = np.random.default_rng(100 * nets + n)
        each = [init_params(rng=rng) for _ in range(nets)]
        stack = NetworkParams(*map(np.array, zip(*(p.arrays() for p in each))))
        states = rng.normal(size=(n, 10)) * 3.0
        q = forward_batch(states, stack)
        assert q.shape == (nets, n, 11)
        for k, params in enumerate(each):
            assert same_bits(q[k], forward_batch(states, params))
            for i in range(n):
                assert same_bits(q[k, i], forward(states[i], params))

    def test_nonfinite_state_rejected(self):
        params = init_params(rng=np.random.default_rng(2))
        s = np.ones(10)
        s[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(s, params)
        states = np.ones((3, 10))
        states[1, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            forward_batch(states, params)
        pair = NetworkParams(*map(np.array, zip(params.arrays(), params.arrays())))
        with pytest.raises(ValueError, match="state contains non-finite entries"):
            forward_batch(states, pair)

    def test_selu_negative_branch(self):
        x = np.array([-1.0])
        expect = SELU_LAMBDA * 1.6732632423543772 * (np.exp(-1.0) - 1.0)
        assert selu(x)[0] == pytest.approx(expect, rel=1e-12)


class TestActEpsGreedy:
    def test_greedy_takes_argmax(self):
        q = np.zeros(11)
        q[7] = 0.9
        assert act_eps_greedy(lambda: q, q.size, 0.0, np.random.default_rng(0)) == 7

    def test_tie_breaks_to_lowest_index(self):
        q = np.full(11, 0.5)
        assert act_eps_greedy(lambda: q, q.size, 0.0, np.random.default_rng(0)) == 0

    def test_full_exploration_roughly_uniform(self):
        def q():
            raise AssertionError("an explored step computed its action values")

        rng = np.random.default_rng(3)
        counts = np.zeros(11)
        n = 10_000
        for _ in range(n):
            counts[act_eps_greedy(q, 11, 1.0, rng)] += 1
        expected = n / 11
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 30.0  # 10 dof, generous threshold

    def test_draws_random_then_integers(self):
        # the stream of the training actor: one random(), then integers(n) on
        # an explored step, whether or not q is computed
        rng, oracle = np.random.default_rng(5), np.random.default_rng(5)
        for q in np.random.default_rng(6).uniform(size=(200, 11)):
            want = int(oracle.integers(11)) if oracle.random() < 0.3 else int(np.argmax(q))
            assert act_eps_greedy(lambda: q, 11, 0.3, rng) == want
        assert rng.random() == oracle.random()


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

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           n_in=st.sampled_from([4, 10]), n_out=st.sampled_from([3, 7, 11]),
           log_scale=st.floats(-2.0, 1.0))
    def test_one_exp_pass_equals_reference(self, seed, n, n_in, n_out, log_scale):
        # SELU and its derivative share one exp; the reference computes each its own
        rng = np.random.default_rng(seed)
        params = init_params(n_in=n_in, n_out=n_out, rng=rng)
        states = rng.normal(size=(n, n_in)) * 10.0 ** log_scale
        actions = rng.integers(n_out, size=n)
        ys = rng.uniform(0.0, 2.0, size=n)
        loss, grads = loss_with_fixed_targets(states, actions, ys, params)
        expect_loss, expect = reference_loss_with_fixed_targets(states, actions, ys, params)
        assert same_bits(loss, expect_loss)
        for g, e in zip(grads.arrays(), expect.arrays()):
            assert same_bits(g, e)
        assert grads.shapes == (n_in, HIDDEN_SIZE, n_out)

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           terminals=st.sampled_from(["none", "all", "mixed"]),
           discount=st.sampled_from([1.0, 0.9]))
    def test_update_equals_the_wrapped_reference(self, seed, n, terminals, discount):
        # the ufuncs behind mean, sum and zeros_like give their bits
        rng = np.random.default_rng(seed)
        online, target = init_params(rng=rng), init_params(rng=rng)
        done = {"none": np.zeros(n, dtype=bool), "all": np.ones(n, dtype=bool),
                "mixed": rng.permutation(n) < n // 2}[terminals]  # both kinds from n = 2
        batch = Batch(rng.normal(size=(n, STATE_SIZE)), rng.integers(11, size=n),
                      rng.uniform(size=n), rng.normal(size=(n, STATE_SIZE)), done)
        loss, grads = loss_and_grad(batch, online, target, discount)
        expect_loss, expect = wrapped_loss_and_grad(batch, online, target, discount)
        assert np.float64(loss).tobytes() == np.float64(expect_loss).tobytes()
        for g, e in zip(grads.arrays(), expect.arrays()):
            assert g.shape == e.shape and g.tobytes() == e.tobytes()

    @pytest.mark.parametrize("terminals", [[False] * 6, [False, True, True, False, True],
                                           [True] * 5])
    def test_update_calls_no_numpy_wrapper(self, numpy_wrapper_calls, terminals):
        calls = numpy_wrapper_calls(agent)
        rng = np.random.default_rng(len(terminals) + sum(terminals))
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng, terminal=t) for t in terminals]
        loss_and_grad(batch, online, target, 1.0)
        assert calls == []


def test_training_calls_no_numpy_wrapper(numpy_wrapper_calls):
    calls = numpy_wrapper_calls(agent, cop, env, features, harness, lshade, problems)
    cfg = ExperimentConfig(problems=("cec12", "synthetic/sphere-linear/9"), dims=(10,),
                           pop_size=10, maxfes_per_dim=5, epochs=2, batch_size=4)
    result = harness.train(cfg)
    assert len(result.episodes) == 4
    assert calls == []


def per_transition_loss_and_grad(batch, online, target, discount):
    """The oracle: one td_target per transition, then the fixed-target loss."""
    states = np.stack([tr.state for tr in batch])
    actions = np.array([tr.action for tr in batch])
    ys = np.array([td_target(tr, online, target, discount) for tr in batch])
    return loss_with_fixed_targets(states, actions, ys, online)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_oracle(batch, online, target, discount):
    loss, grads = loss_and_grad(batch, online, target, discount)
    expect_loss, expect = per_transition_loss_and_grad(batch, online, target, discount)
    assert same_bits(loss, expect_loss)
    for g, e in zip(grads.arrays(), expect.arrays()):
        assert same_bits(g, e)


@pytest.fixture
def forward_calls(monkeypatch):
    """Counts the single-state and batched forwards loss_and_grad makes."""
    calls = {"forward": 0, "forward_batch": []}

    def counted_forward(s, params):
        calls["forward"] += 1
        return forward(s, params)

    def counted_batch(states, params):
        calls["forward_batch"].append((np.shape(states), params.w1.shape[:-2]))
        return forward_batch(states, params)

    monkeypatch.setattr(agent, "forward", counted_forward)
    monkeypatch.setattr(agent, "forward_batch", counted_batch)
    return calls


class TestBatchedTargets:
    """loss_and_grad prices its targets in one forward over the stacked
    online and target nets; td_target, one transition at a time, is the
    definition it must reproduce bitwise."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           terminals=st.lists(st.booleans(), min_size=1, max_size=64),
           discount=st.sampled_from([0.0, 0.5, 1.0]))
    def test_equals_per_transition_oracle(self, seed, terminals, discount):
        rng = np.random.default_rng(seed)
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng, terminal=t) for t in terminals]
        assert_matches_oracle(batch, online, target, discount)

    def test_one_stacked_forward_over_the_live_rows(self, forward_calls):
        rng = np.random.default_rng(11)
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng, terminal=bool(i % 3 == 0)) for i in range(7)]
        loss_and_grad(batch, online, target, 1.0)
        assert forward_calls == {"forward": 0, "forward_batch": [((4, 10), (2,))]}

    def test_all_terminal_batch_makes_no_forward(self, forward_calls):
        rng = np.random.default_rng(12)
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng, terminal=True) for _ in range(5)]
        loss, _ = loss_and_grad(batch, online, target, 1.0)
        assert forward_calls == {"forward": 0, "forward_batch": []}
        assert np.isfinite(loss)
        assert_matches_oracle(batch, online, target, 1.0)

    @pytest.mark.parametrize("terminal", [False, True])
    def test_batch_of_one(self, terminal):
        rng = np.random.default_rng(13)
        online, target = init_params(rng=rng), init_params(rng=rng)
        for discount in (0.0, 0.5, 1.0):
            assert_matches_oracle([random_transition(rng, terminal=terminal)],
                                  online, target, discount)

    def test_nonfinite_next_state_of_live_transition_rejected(self):
        rng = np.random.default_rng(14)
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng) for _ in range(4)]
        batch[2].next_state[5] = np.nan
        with pytest.raises(ValueError, match="state contains non-finite entries"):
            loss_and_grad(batch, online, target, 1.0)
        with pytest.raises(ValueError, match="state contains non-finite entries"):
            td_target(batch[2], online, target, 1.0)

    def test_terminal_next_state_is_never_read(self):
        rng = np.random.default_rng(15)
        online, target = init_params(rng=rng), init_params(rng=rng)
        batch = [random_transition(rng, terminal=i == 1) for i in range(4)]
        batch[1].next_state[:] = np.nan
        assert_matches_oracle(batch, online, target, 1.0)
        assert_matches_oracle([batch[1]], online, target, 1.0)


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

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        # a nan or inf rate would turn every weight into nan
        params = init_params(rng=np.random.default_rng(11))
        before = [a.copy() for a in params.arrays()]
        ones = NetworkParams(*(np.ones_like(a) for a in params.arrays()))
        with pytest.raises(ValueError, match="learning rate must be positive"):
            sgd_step(params, ones, lr)
        for a, b in zip(params.arrays(), before):
            assert same_bits(a, b)

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
        assert explore_rate(0, 1000) == pytest.approx(0.9)
        assert explore_rate(800, 1000) == pytest.approx(0.05)
        assert explore_rate(1000, 1000) == pytest.approx(0.05)
        mid = explore_rate(400, 1000)
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


FIELDS = ("state", "action", "reward", "next_state", "terminal")


def filled_buffer(capacity, pushes, seed):
    """A buffer and its list oracle fed the same transitions, about a third terminal."""
    rng = np.random.default_rng(seed)
    buf, oracle = ReplayBuffer(capacity), ListReplayBuffer(capacity)
    for _ in range(pushes):
        tr = random_transition(rng, terminal=bool(rng.random() < 0.3))
        buf.push(tr)
        oracle.push(tr)
    return buf, oracle


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

    def test_empty_sample_rejected(self):
        buf, _ = filled_buffer(4, 2, seed=14)
        with pytest.raises(ValueError, match="cannot sample 0 of 2 transitions"):
            buf.sample(0, np.random.default_rng(0))

    # below capacity, exactly full, wrapped several times, capacity 1
    @pytest.mark.parametrize("capacity, pushes", [(16, 9), (16, 16), (5, 23), (1, 1), (1, 7)])
    def test_samples_equal_the_list_oracle(self, capacity, pushes):
        buf, oracle = filled_buffer(capacity, pushes, seed=capacity * 100 + pushes)
        assert len(buf) == len(oracle)
        rng, oracle_rng = np.random.default_rng(pushes), np.random.default_rng(pushes)
        for k in sorted({1, (len(oracle) + 1) // 2, len(oracle)}):
            batch = buf.sample(k, rng)
            expect = oracle.sample(k, oracle_rng)
            assert isinstance(batch, Batch) and len(batch) == k
            got = list(batch)
            assert len(got) == k and all(isinstance(tr, Transition) for tr in got)
            for tr, e in zip(got, expect):
                for name in FIELDS:
                    assert same_bits(getattr(tr, name), getattr(e, name)), name
        assert same_bits(rng.random(4), oracle_rng.random(4))

    def test_sampled_columns_are_contiguous_rows(self):
        buf, _ = filled_buffer(8, 13, seed=17)
        batch = buf.sample(5, np.random.default_rng(17))
        assert batch.states.shape == batch.next_states.shape == (5, STATE_SIZE)
        assert (batch.actions.dtype, batch.rewards.dtype, batch.terminals.dtype) == (
            np.int64, np.float64, np.bool_)
        assert batch.states.flags.c_contiguous and batch.next_states.flags.c_contiguous

    def test_numpy_integer_action_and_bool_terminal_stored(self):
        rng = np.random.default_rng(18)
        tr = random_transition(rng)
        buf = ReplayBuffer(2)
        buf.push(Transition(tr.state, np.int64(7), np.float64(0.25), tr.next_state,
                            np.bool_(True)))
        (got,) = buf.sample(1, rng)
        assert (got.action, got.reward, got.terminal) == (7, 0.25, True)


def columns(batch):
    return (batch.states, batch.actions, batch.rewards, batch.next_states, batch.terminals)


def assert_rejected(field, bad, match):
    """push of a transition whose ``field`` is ``bad`` raises and changes nothing."""
    buf, _ = filled_buffer(4, 3, seed=19)
    before = columns(buf.sample(3, np.random.default_rng(0)))
    good = random_transition(np.random.default_rng(20))
    fields = {name: getattr(good, name) for name in FIELDS}
    fields[field] = bad
    with pytest.raises(ValueError, match=match):
        buf.push(Transition(**fields))
    assert len(buf) == 3
    for c, b in zip(columns(buf.sample(3, np.random.default_rng(0))), before):
        assert same_bits(c, b)


class TestReplayBufferRejects:
    """The columns would coerce these silently; push raises ValueError naming the field."""

    @pytest.mark.parametrize("field", ["state", "next_state"])
    @pytest.mark.parametrize("shape", [(1,), (9,), (11,), (), (1, 10)])
    def test_state_of_another_shape(self, field, shape):
        assert_rejected(field, np.ones(shape), rf"{field} must have shape \(10,\)")

    @pytest.mark.parametrize("action", [2.7, 2.0, np.float64(3.0), "2", None])
    def test_action_that_is_not_an_integer(self, action):
        assert_rejected("action", action, "action must be an integer")

    @pytest.mark.parametrize("reward", [np.nan, np.float64(np.nan)])
    def test_nan_reward(self, reward):
        assert_rejected("reward", reward, "reward is NaN")

    def test_first_push_fixes_the_width(self):
        buf = ReplayBuffer(3)
        buf.push(Transition(np.ones(4), 0, 0.0, np.zeros(4), False))
        with pytest.raises(ValueError, match=r"state must have shape \(4,\)"):
            buf.push(Transition(np.ones(10), 0, 0.0, np.zeros(10), False))
        with pytest.raises(ValueError, match=r"next_state must have shape \(4,\)"):
            buf.push(Transition(np.ones(4), 0, 0.0, np.zeros(10), False))
        assert len(buf) == 1


class TestSampledBatchLoss:
    """One math path: a sampled batch, the same batch as a list of
    transitions, and the per-transition oracle agree bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64),
           mix=st.sampled_from(["all", "none", "mixed"]),
           discount=st.sampled_from([0.0, 0.5, 1.0]))
    def test_sampled_list_and_oracle_agree(self, seed, n, mix, discount):
        rng = np.random.default_rng(seed)
        online, target = init_params(rng=rng), init_params(rng=rng)
        buf = ReplayBuffer(64)
        for _ in range(64 + n):
            terminal = {"all": True, "none": False, "mixed": bool(rng.random() < 0.3)}[mix]
            buf.push(random_transition(rng, terminal=terminal))
        batch = buf.sample(n, rng)
        before = [c.copy() for c in columns(batch)]
        loss, grads = loss_and_grad(batch, online, target, discount)
        for c, b in zip(columns(batch), before):
            assert same_bits(c, b)  # the batch is read, never written
        for other_loss, other in (loss_and_grad(list(batch), online, target, discount),
                                  per_transition_loss_and_grad(list(batch), online, target,
                                                               discount)):
            assert same_bits(loss, other_loss)
            for g, e in zip(grads.arrays(), other.arrays()):
                assert same_bits(g, e)


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

    def test_non_utf8_file_is_parse_error_naming_it(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(rng=np.random.default_rng(18)), self.meta(), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))
        with pytest.raises(CheckpointParseError, match=f"checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("n_in, keep, error", [
        (STATE_SIZE, 1, CheckpointParseError),  # the format line alone
        (STATE_SIZE, 0, CheckpointVersionError),  # an empty file
        (STATE_SIZE - 1, None, CheckpointShapeError),
    ])
    def test_every_load_error_names_the_file(self, tmp_path, n_in, keep, error):
        path = tmp_path / "ckpt.txt"
        save_checkpoint(init_params(n_in=n_in, rng=np.random.default_rng(18)), self.meta(), path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        with pytest.raises(error, match=f"^checkpoint {re.escape(str(path))}: "):
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
