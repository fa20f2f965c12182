"""Value-network controller: a 10 -> 64 -> n_actions perceptron with a SELU
hidden layer and a sigmoid head, trained by plain gradient descent on the
double-estimator temporal-difference target.

All gradients are derived and implemented by hand; the only dependency is
numpy.  The sigmoid head keeps every action value strictly inside (0, 1),
matching the bounded per-step rewards.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .env import SCHEME_EXPONENTIAL, ActionSpace

if TYPE_CHECKING:
    from collections.abc import Callable

    from .config import ExperimentConfig

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

STATE_SIZE = 10
HIDDEN_SIZE = 64

CHECKPOINT_MAGIC = "rleceo-ckpt v1"

# the fixed training schedule; TARGET_SYNC_PERIOD counts gradient steps
LR_START = 5e-3
LR_END = 1e-4
DISCOUNT = 1.0
TARGET_SYNC_PERIOD = 10
EXPLORE_START = 0.9
EXPLORE_END = 0.05
EXPLORE_FRACTION = 0.8  # share of the meta-steps spent decaying


class CheckpointVersionError(ValueError):
    """Checkpoint file carries an unsupported format line."""


class CheckpointShapeError(ValueError):
    """Checkpoint shapes disagree with the declared metadata or caller."""


class CheckpointParseError(ValueError):
    """Checkpoint file is truncated or not parseable."""


def selu(x: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(x > 0.0, x, SELU_ALPHA * (np.exp(x) - 1.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class NetworkParams:
    """Weights of the two affine layers; b-vectors are one-dimensional."""

    w1: np.ndarray  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    @property
    def shapes(self) -> tuple[int, int, int]:
        return (self.w1.shape[1], self.w1.shape[0], self.w2.shape[0])

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


def init_params(n_in: int = STATE_SIZE, n_hidden: int = HIDDEN_SIZE,
                n_out: int = ActionSpace.for_scheme(SCHEME_EXPONENTIAL).n_actions, *,
                rng: np.random.Generator) -> NetworkParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    lim1 = math.sqrt(6.0 / (n_in + n_hidden))
    lim2 = math.sqrt(6.0 / (n_hidden + n_out))
    return NetworkParams(
        w1=rng.uniform(-lim1, lim1, size=(n_hidden, n_in)),
        b1=np.zeros(n_hidden),
        w2=rng.uniform(-lim2, lim2, size=(n_out, n_hidden)),
        b2=np.zeros(n_out),
    )


def forward(s: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Action values for one state: sigmoid(W2 selu(W1 s + b1) + b2)."""
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("state contains non-finite entries")
    hidden = selu(params.w1 @ s + params.b1)
    return sigmoid(params.w2 @ hidden + params.b2)


# a stack of matrix-vector products keeps forward's bits on every row;
# ``states @ w1.T`` would round differently in the last place
def forward_batch(states: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Action values for a (batch, in) matrix of states, row i equal to ``forward(states[i])``
    bit for bit; parameters stacked on a leading net axis give (nets, batch, out)."""
    states = np.asarray(states, dtype=float)
    if not np.isfinite(states).all():
        raise ValueError("state contains non-finite entries")
    hidden = selu(np.matmul(params.w1[..., None, :, :], states[:, :, None])[..., 0]
                  + params.b1[..., None, :])
    return sigmoid(np.matmul(params.w2[..., None, :, :], hidden[..., None])[..., 0]
                   + params.b2[..., None, :])


def act_eps_greedy(q: Callable[[], np.ndarray], n_actions: int, explore_rate: float,
                   rng: np.random.Generator) -> int:
    """Uniform random action out of n_actions with probability explore_rate,
    else the argmax of the action values ``q()`` (ties broken toward the
    lowest index); ``q`` is called only on a greedy step."""
    if not 0.0 <= explore_rate <= 1.0:
        raise ValueError("explore_rate must be in [0, 1]")
    if explore_rate > 0.0 and rng.random() < explore_rate:
        return int(rng.integers(n_actions))
    return int(np.argmax(q()))


# the per-transition definition of loss_and_grad's batched targets, and the
# tests' oracle for them; bench/spans.py patches this name unguarded
def td_target(tr: Transition, online: NetworkParams, target: NetworkParams,
              discount: float) -> float:
    """Double-estimator target: the online net picks the next action, the
    target net prices it.  Terminal transitions never bootstrap."""
    if tr.terminal:
        return tr.reward
    a_next = int(np.argmax(forward(tr.next_state, online)))
    return tr.reward + discount * float(forward(tr.next_state, target)[a_next])


def loss_with_fixed_targets(states: np.ndarray, actions: np.ndarray, ys: np.ndarray,
                            params: NetworkParams) -> tuple[float, NetworkParams]:
    """Mean squared error of the taken-action outputs against fixed targets.

    Per sample only the taken action's output contributes.  Gradients flow
    through sigmoid, the output affine layer, SELU, and the input affine
    layer, and are averaged over the batch.
    """
    n = states.shape[0]
    rows = np.arange(n)
    z1 = states @ params.w1.T + params.b1          # (n, hidden)
    positive, e = z1 > 0.0, np.exp(z1)  # one exp for SELU and its derivative
    hidden = SELU_LAMBDA * np.where(positive, z1, SELU_ALPHA * (e - 1.0))
    z2 = hidden @ params.w2.T + params.b2          # (n, out)
    q = sigmoid(z2)
    q_taken = q[rows, actions]

    err = q_taken - ys
    loss = float(np.add.reduce(err ** 2) / n)  # mean()'s ufunc calls, without its wrapper

    # d(loss)/d(z2): only the taken-action column is non-zero per sample
    dz2 = np.zeros(z2.shape)
    dz2[rows, actions] = 2.0 * err * q_taken * (1.0 - q_taken) / n
    dw2 = dz2.T @ hidden
    db2 = np.add.reduce(dz2, axis=0)
    dz1 = (dz2 @ params.w2) * (SELU_LAMBDA * np.where(positive, 1.0, SELU_ALPHA * e))
    dw1 = dz1.T @ states
    db1 = np.add.reduce(dz1, axis=0)
    return loss, NetworkParams(dw1, db1, dw2, db2)


def loss_and_grad(batch: Batch | list[Transition], online: NetworkParams,
                  target: NetworkParams, discount: float) -> tuple[float, NetworkParams]:
    """Batch loss against the double-estimator targets, with its gradient.

    ``batch`` is a ``ReplayBuffer.sample`` or a list of transitions, which is
    first collated into the same columns.  The targets are computed once and
    treated as constants; no gradient flows through the target network or
    the next-action selection.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    if not isinstance(batch, Batch):
        batch = Batch(np.array([tr.state for tr in batch]), np.array([tr.action for tr in batch]),
                      np.array([tr.reward for tr in batch], dtype=float),
                      np.array([tr.next_state for tr in batch]),
                      np.array([tr.terminal for tr in batch], dtype=bool))
    ys = batch.rewards.copy()
    live = ~batch.terminals
    if live.any():  # equal to td_target per transition: one forward over both nets
        pair = NetworkParams(*map(np.array, zip(online.arrays(), target.arrays())))
        q_online, q_target = forward_batch(batch.next_states[live], pair)
        a_next = q_online.argmax(axis=1)
        ys[live] = ys[live] + discount * q_target[np.arange(a_next.size), a_next]
    return loss_with_fixed_targets(batch.states, batch.actions, ys, online)


def sgd_step(params: NetworkParams, grads: NetworkParams, lr: float) -> None:
    """Plain gradient descent, in place: every parameter -= lr * grad."""
    if not 0.0 < lr < math.inf:  # nan fails both comparisons
        raise ValueError("learning rate must be positive")
    for p, g in zip(params.arrays(), grads.arrays()):
        p -= lr * g


def sync_target(online: NetworkParams, target: NetworkParams) -> None:
    """Copy the online parameters into the target network, in place."""
    for t, o in zip(target.arrays(), online.arrays()):
        np.copyto(t, o)


def cosine_lr(epoch: int, cfg: ExperimentConfig) -> float:
    """Cosine decay from LR_START at epoch 0 to LR_END at cfg.epochs."""
    if not 0 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch must be in [0, {cfg.epochs}]")
    return LR_END + 0.5 * (LR_START - LR_END) * (1.0 + math.cos(math.pi * epoch / cfg.epochs))


def explore_rate(step: int, total_steps: int) -> float:
    """Linear decay from EXPLORE_START to EXPLORE_END over the first
    EXPLORE_FRACTION of the meta-steps, constant afterwards."""
    horizon = max(1, int(EXPLORE_FRACTION * total_steps))
    frac = min(1.0, step / horizon)
    return EXPLORE_START + frac * (EXPLORE_END - EXPLORE_START)


class Batch:
    """Transitions as columns, row i being transition i: states and next_states
    (n, width) float, actions int64, rewards float, terminals bool.  Iterating
    a batch yields its rows as ``Transition``s."""

    __slots__ = ("states", "actions", "rewards", "next_states", "terminals")

    def __init__(self, states, actions, rewards, next_states, terminals):
        self.states, self.actions, self.rewards = states, actions, rewards
        self.next_states, self.terminals = next_states, terminals

    def __len__(self) -> int:
        return len(self.rewards)

    def __iter__(self):
        return map(Transition, self.states, self.actions.tolist(), self.rewards.tolist(),
                   self.next_states, self.terminals.tolist())


class ReplayBuffer:
    """Fixed-capacity ring of transitions, held as a ``Batch`` of ``capacity``
    rows that the first push allocates, with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._rows: Batch | None = None
        self._size = self._cursor = 0

    def push(self, tr: Transition) -> None:
        """Write ``tr`` at the ring cursor.  What a column would coerce raises
        ``ValueError`` and changes nothing: a state or next state whose shape is
        not (width,) (the first push sets the width), an action that is not an
        integer, or a NaN reward."""
        state = np.asarray(tr.state, dtype=float)
        next_state = np.asarray(tr.next_state, dtype=float)
        width = state.size if self._rows is None else self._rows.states.shape[1]
        for name, value in (("state", state), ("next_state", next_state)):
            if value.shape != (width,):
                raise ValueError(f"{name} must have shape ({width},), got {value.shape}")
        try:
            action = operator.index(tr.action)
        except TypeError:
            raise ValueError(f"action must be an integer, got {tr.action!r}") from None
        if math.isnan(reward := float(tr.reward)):
            raise ValueError("reward is NaN")
        if self._rows is None:
            n = self.capacity
            self._rows = Batch(np.empty((n, width)), np.empty(n, dtype=np.int64), np.empty(n),
                               np.empty((n, width)), np.empty(n, dtype=bool))
        rows, i = self._rows, self._cursor
        rows.states[i], rows.actions[i], rows.rewards[i] = state, action, reward
        rows.next_states[i], rows.terminals[i] = next_state, bool(tr.terminal)
        self._size = max(self._size, i + 1)
        self._cursor = (i + 1) % self.capacity

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform sample without replacement within the batch, one ``take`` per column."""
        if not 1 <= batch_size <= self._size:
            raise ValueError(f"cannot sample {batch_size} of {self._size} transitions")
        idx, rows = rng.choice(self._size, size=batch_size, replace=False), self._rows
        return Batch(rows.states.take(idx, axis=0), rows.actions.take(idx), rows.rewards.take(idx),
                     rows.next_states.take(idx, axis=0), rows.terminals.take(idx))


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------

@dataclass
class CheckpointMetadata:
    action_scheme: str
    f_agentbest: float
    seed: int
    epochs: int
    extra: dict = field(default_factory=dict)  # e.g. problem_set_hash, lr_start

    def to_pairs(self) -> str:
        items = {
            "action_scheme": self.action_scheme,
            "f_agentbest": f"{self.f_agentbest:.17g}",
            "seed": str(self.seed),
            "epochs": str(self.epochs),
        }
        items.update({k: str(v) for k, v in sorted(self.extra.items())})
        return " ".join(f"{k}={v}" for k, v in items.items())

    @classmethod
    def from_pairs(cls, line: str) -> "CheckpointMetadata":
        kv = {}
        for token in line.split():
            if "=" not in token:
                raise CheckpointParseError(f"bad metadata token {token!r}")
            k, v = token.split("=", 1)
            kv[k] = v

        def value(key, kind=str):
            try:
                return kind(kv.pop(key))
            except KeyError:
                raise CheckpointParseError(f"missing metadata key {key!r}") from None
            except ValueError as exc:
                raise CheckpointParseError(f"metadata {key}: {exc}") from None

        meta = cls(action_scheme=value("action_scheme"), f_agentbest=value("f_agentbest", float),
                   seed=value("seed", int), epochs=value("epochs", int))
        if not math.isfinite(meta.f_agentbest):
            # r1's denominator is taken from it; a nan or inf would zero r1 in every step
            raise CheckpointParseError(f"metadata f_agentbest: non-finite value {meta.f_agentbest}")
        meta.extra = kv
        return meta


def save_checkpoint(params: NetworkParams, metadata: CheckpointMetadata, path) -> None:
    """Versioned text format, one value per line at 17 significant digits,
    written atomically (temp file + rename) so readers never see a torso."""
    n_in, n_hidden, n_out = params.shapes
    lines = [CHECKPOINT_MAGIC, f"shapes {n_in} {n_hidden} {n_out}", metadata.to_pairs()]
    for arr in params.arrays():
        lines.extend(f"{v:.17g}" for v in arr.ravel())
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[NetworkParams, CheckpointMetadata]:
    """Inverse of save_checkpoint, bit-exact at 64-bit; its errors start with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_checkpoint(fh.read().splitlines())
    except UnicodeDecodeError as exc:
        raise CheckpointParseError(f"checkpoint {path}: {exc}") from None
    except (CheckpointParseError, CheckpointVersionError, CheckpointShapeError) as exc:
        raise type(exc)(f"checkpoint {path}: {exc}") from None


def _parse_checkpoint(lines: list[str]) -> tuple[NetworkParams, CheckpointMetadata]:
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointVersionError(
            f"unsupported checkpoint format: {lines[0] if lines else '<empty>'!r}"
        )
    if len(lines) < 3 or not lines[1].startswith("shapes "):
        raise CheckpointParseError("missing shapes line")
    try:
        n_in, n_hidden, n_out = (int(v) for v in lines[1].split()[1:])
    except ValueError:
        raise CheckpointParseError(f"bad shapes line {lines[1]!r}") from None
    metadata = CheckpointMetadata.from_pairs(lines[2])

    counts = [n_hidden * n_in, n_hidden, n_out * n_hidden, n_out]
    values = lines[3:]
    if len(values) != sum(counts):
        raise CheckpointParseError(
            f"expected {sum(counts)} parameter lines, found {len(values)}"
        )
    try:
        flat = np.array([float(v) for v in values])
    except ValueError as exc:
        raise CheckpointParseError(f"bad parameter value: {exc}") from None
    if not np.all(np.isfinite(flat)):
        bad = int(np.argmin(np.isfinite(flat)))
        raise CheckpointParseError(
            f"non-finite parameter value {values[bad]!r} on line {bad + 4}"
        )
    pieces = np.split(flat, np.cumsum(counts)[:-1])
    params = NetworkParams(
        w1=pieces[0].reshape(n_hidden, n_in),
        b1=pieces[1],
        w2=pieces[2].reshape(n_out, n_hidden),
        b2=pieces[3],
    )
    if n_in != STATE_SIZE:
        raise CheckpointShapeError(f"the state has {STATE_SIZE} features, "
                                   f"file declares {n_in} inputs")
    try:
        expected_out = ActionSpace.for_scheme(metadata.action_scheme).n_actions
    except ValueError as exc:
        raise CheckpointParseError(str(exc)) from None
    if n_out != expected_out:
        raise CheckpointShapeError(
            f"scheme {metadata.action_scheme!r} implies {expected_out} outputs, "
            f"file declares {n_out}"
        )
    return params, metadata
