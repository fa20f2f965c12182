"""Walkthrough: the hand-rolled value network.

Forward pass, a spot finite-difference check of the hand-derived
gradient, a small regression showing gradient descent driving the
value of one action toward a fixed target, and one update on a batch
sampled from the replay buffer.
"""
import numpy as np

from rlrelax import ReplayBuffer, Transition, forward
from rlrelax.agent import (
    init_params,
    loss_and_grad,
    loss_with_fixed_targets,
    sgd_step,
    td_target,
)

rng = np.random.default_rng(0)
params = init_params(rng=rng)
state = rng.normal(size=10)
q = forward(state, params)
print("action values:", np.round(q, 4))
print("all strictly inside (0, 1):", bool(np.all((q > 0) & (q < 1))))

# spot-check the hand-derived gradient against central differences
target_net = init_params(rng=rng)
batch = [Transition(rng.normal(size=10), int(rng.integers(11)),
                    float(rng.uniform()), rng.normal(size=10), False)
         for _ in range(4)]
states = np.stack([tr.state for tr in batch])
actions = np.array([tr.action for tr in batch])
ys = np.array([td_target(tr, params, target_net, 1.0) for tr in batch])
_, grads = loss_with_fixed_targets(states, actions, ys, params)

h = 1e-5
flat = params.w1.ravel()
idx = 123
orig = flat[idx]
flat[idx] = orig + h
up, _ = loss_with_fixed_targets(states, actions, ys, params)
flat[idx] = orig - h
down, _ = loss_with_fixed_targets(states, actions, ys, params)
flat[idx] = orig
numeric = (up - down) / (2 * h)
analytic = grads.w1.ravel()[idx]
print(f"\ngradient spot check: analytic {analytic:.10f}  numeric {numeric:.10f}")

# drive one action value to a target with plain gradient descent
tr = Transition(rng.normal(size=10), 4, 0.8, np.zeros(10), True)
print("\noverfitting one transition (target value 0.8):")
for step in range(1, 401):
    loss, g = loss_and_grad([tr], params, params.copy(), 1.0)
    if step in (1, 10, 50, 100, 200, 400) or loss < 1e-6:
        print(f"  step {step:4d}: loss {loss:.3e}  q[4] = {forward(tr.state, params)[4]:.4f}")
    if loss < 1e-6:
        break
    sgd_step(params, g, 1e-2)

# a replay sample is a column batch; as a list of transitions it gives the same update
buffer = ReplayBuffer(8)
for i in range(12):
    buffer.push(Transition(rng.normal(size=10), int(rng.integers(11)), float(rng.uniform()),
                           rng.normal(size=10), i % 4 == 3))
sample = buffer.sample(4, rng)
loss, g = loss_and_grad(sample, params, target_net, 1.0)
list_loss, list_g = loss_and_grad(list(sample), params, target_net, 1.0)
print(f"\nreplay sample of {len(sample)} from {len(buffer)} stored "
      f"(capacity {buffer.capacity}, 12 pushed):")
print("  actions", sample.actions.tolist(), " terminal", sample.terminals.tolist())
print(f"  loss {loss:.6e}; the same batch as a list of transitions gives equal bits:",
      list_loss == loss and all(a.tobytes() == b.tobytes()
                                 for a, b in zip(g.arrays(), list_g.arrays())))
