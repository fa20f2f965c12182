"""Value-network controller: a 10 -> 64 -> n_actions perceptron with a SELU
hidden layer and a sigmoid head, trained by plain gradient descent on the
double-estimator temporal-difference target.

All gradients are derived and implemented by hand; the only dependency is
numpy.  The sigmoid head keeps every action value strictly inside (0, 1),
matching the bounded per-step rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .env import ActionSpace, Transition

if TYPE_CHECKING:
    from .config import ExperimentConfig

SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

STATE_SIZE = 10
HIDDEN_SIZE = 64

CHECKPOINT_MAGIC = "rleceo-ckpt v1"


class CheckpointVersionError(ValueError):
    """Checkpoint file carries an unsupported format line."""


class CheckpointShapeError(ValueError):
    """Checkpoint shapes disagree with the declared metadata or caller."""


class CheckpointParseError(ValueError):
    """Checkpoint file is truncated or not parseable."""


def selu(x: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(x > 0.0, x, SELU_ALPHA * (np.exp(x) - 1.0))


def selu_grad(x: np.ndarray) -> np.ndarray:
    return SELU_LAMBDA * np.where(x > 0.0, 1.0, SELU_ALPHA * np.exp(x))


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


def init_params(n_in: int = STATE_SIZE, n_hidden: int = HIDDEN_SIZE, n_out: int = 11, *,
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
    if not np.all(np.isfinite(s)):
        raise ValueError("state contains non-finite entries")
    hidden = selu(params.w1 @ s + params.b1)
    return sigmoid(params.w2 @ hidden + params.b2)


# bench/spans.py patches this name unguarded; it stays until its probe moves
def forward_batch(states: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Vectorized forward pass over a (batch, in) matrix of states."""
    hidden = selu(states @ params.w1.T + params.b1)
    return sigmoid(hidden @ params.w2.T + params.b2)


def act_eps_greedy(q: np.ndarray, explore_rate: float, rng: np.random.Generator) -> int:
    """Uniform random action with probability explore_rate, else the argmax
    (ties broken toward the lowest index)."""
    if not 0.0 <= explore_rate <= 1.0:
        raise ValueError("explore_rate must be in [0, 1]")
    if explore_rate > 0.0 and rng.random() < explore_rate:
        return int(rng.integers(q.size))
    return int(np.argmax(q))


# bench/spans.py patches this name unguarded; a batched learner must keep it
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
    z1 = states @ params.w1.T + params.b1          # (n, hidden)
    hidden = selu(z1)
    z2 = hidden @ params.w2.T + params.b2          # (n, out)
    q = sigmoid(z2)
    q_taken = q[np.arange(n), actions]

    err = q_taken - ys
    loss = float(np.mean(err ** 2))

    # d(loss)/d(z2): only the taken-action column is non-zero per sample
    dz2 = np.zeros_like(z2)
    dz2[np.arange(n), actions] = 2.0 * err * q_taken * (1.0 - q_taken) / n
    dw2 = dz2.T @ hidden
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ params.w2) * selu_grad(z1)
    dw1 = dz1.T @ states
    db1 = dz1.sum(axis=0)
    return loss, NetworkParams(dw1, db1, dw2, db2)


def loss_and_grad(batch: list[Transition], online: NetworkParams,
                  target: NetworkParams, discount: float) -> tuple[float, NetworkParams]:
    """Batch loss against the double-estimator targets, with its gradient.

    The targets are computed once and treated as constants; no gradient
    flows through the target network or the next-action selection.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    states = np.stack([tr.state for tr in batch])
    actions = np.array([tr.action for tr in batch])
    ys = np.array([td_target(tr, online, target, discount) for tr in batch])
    return loss_with_fixed_targets(states, actions, ys, online)


def sgd_step(params: NetworkParams, grads: NetworkParams, lr: float) -> None:
    """Plain gradient descent, in place: every parameter -= lr * grad."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    params.w1 -= lr * grads.w1
    params.b1 -= lr * grads.b1
    params.w2 -= lr * grads.w2
    params.b2 -= lr * grads.b2


def sync_target(online: NetworkParams, target: NetworkParams) -> None:
    """Copy the online parameters into the target network, in place."""
    np.copyto(target.w1, online.w1)
    np.copyto(target.b1, online.b1)
    np.copyto(target.w2, online.w2)
    np.copyto(target.b2, online.b2)


def cosine_lr(epoch: int, cfg: ExperimentConfig) -> float:
    """Cosine decay from lr_start at epoch 0 to lr_end at cfg.epochs."""
    if not 0 <= epoch <= cfg.epochs:
        raise ValueError(f"epoch must be in [0, {cfg.epochs}]")
    return cfg.lr_end + 0.5 * (cfg.lr_start - cfg.lr_end) * (
        1.0 + math.cos(math.pi * epoch / cfg.epochs)
    )


def explore_rate(step: int, total_steps: int, cfg: ExperimentConfig) -> float:
    """Linear decay from explore_start to explore_end over the first
    explore_fraction of the meta-steps, constant afterwards."""
    horizon = max(1, int(cfg.explore_fraction * total_steps))
    frac = min(1.0, step / horizon)
    return cfg.explore_start + frac * (cfg.explore_end - cfg.explore_start)


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._cursor = 0

    def push(self, tr: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(tr)
        else:
            self._items[self._cursor] = tr
        self._cursor = (self._cursor + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sample without replacement within the batch."""
        if batch_size > len(self._items):
            raise ValueError("not enough transitions to sample")
        idx = rng.choice(len(self._items), size=batch_size, replace=False)
        return [self._items[i] for i in idx]


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
    import os

    n_in, n_hidden, n_out = params.shapes
    lines = [CHECKPOINT_MAGIC, f"shapes {n_in} {n_hidden} {n_out}", metadata.to_pairs()]
    for arr in params.arrays():
        lines.extend(f"{v:.17g}" for v in arr.ravel())
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple[NetworkParams, CheckpointMetadata]:
    """Inverse of save_checkpoint; round-trips bit-exactly at 64-bit."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
