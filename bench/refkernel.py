"""A fixed reference kernel that gauges how fast this host runs right now.

On a shared host the same pass can run up to twice as slow while other
tenants are busy, in stretches of seconds to minutes. The kernel does the
same kind of work as the program -- per-candidate numpy calls on short
vectors inside Python loops, a small two-layer network and a sort -- but
none of the program's code, and its inputs never change.

``Sampler`` runs one kernel generation every few milliseconds in a second
thread while the caller runs the program. The interpreter lock makes the
two take turns on the same CPU (run.py pins the process to one), so the
kernel feels every slow stretch the program feels. The caller's CPU time
divided by the kernel's CPU time per generation is then the program's time
in kernel generations: a slow stretch leaves it nearly unchanged, and a
faster program still lowers it.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# CPU time of one sampled kernel generation on a quiet 2-core x86-64 host
# (Python 3, numpy, BLAS on one thread). A normalised time is generations x
# GEN_REF_S, so it reads in seconds of that host; the constant only sets the
# scale and must not change between the commits being compared.
GEN_REF_S = 0.002
PAUSE_S = 0.02  # between samples; the kernel takes about a tenth of the CPU


def kernel() -> float:
    """One generation of DE/rand/1 on a shifted sphere, then one step of a
    small network's forward and backward on the best candidates."""
    n, d, hidden = 50, 10, 32
    rng = np.random.default_rng(12345)
    pop = rng.uniform(-5.0, 5.0, (n, d))
    shift = rng.uniform(-1.0, 1.0, d)
    fit = np.array([float(np.sum((x - shift) ** 2)) for x in pop])
    w1 = rng.normal(0.0, 0.3, (d, hidden))
    w2 = rng.normal(0.0, 0.3, (hidden, 1))
    for i in range(n):
        a, b, c = rng.choice(n, 3, replace=False)
        mutant = pop[a] + 0.5 * (pop[b] - pop[c])
        trial = np.where(rng.random(d) < 0.9, mutant, pop[i])
        f = float(np.sum((trial - shift) ** 2))
        if f <= fit[i]:
            pop[i], fit[i] = trial, f
    order = np.argsort(fit, kind="stable")
    x = pop[order[:16]]
    h = np.maximum(x @ w1, 0.0)
    err = h @ w2 - fit[order[:16], None]
    grad_h = (err @ w2.T) * (h > 0.0)
    w2 -= 1e-4 * (h.T @ err)
    w1 -= 1e-4 * (x.T @ grad_h)
    return float(fit.min() + w2.sum())


def normalised_s(caller_cpu_ns: int, kernel_cpu_ns: int, gens: int) -> float:
    """The caller's CPU time in kernel generations, times GEN_REF_S."""
    return caller_cpu_ns * gens / kernel_cpu_ns * GEN_REF_S


def pooled_s(samplers: list) -> list[float]:
    """Each sampler's normalised time, at the kernel's cost per generation
    pooled over all of them: for bodies too short to sample on their own."""
    gens = sum(s.gens for s in samplers)
    kernel_cpu_ns = sum(s.kernel_cpu_ns for s in samplers)
    return [normalised_s(s.caller_cpu_ns, kernel_cpu_ns, gens) for s in samplers]


class Sampler:
    """Context manager: samples the kernel in a second thread while the body runs.

    On exit it holds the caller thread's CPU time over the body
    (``caller_cpu_ns``), the kernel's CPU time (``kernel_cpu_ns``) and the
    generations sampled (``gens``, at least 1); ``seconds`` is the body's
    normalised time.
    """

    def __enter__(self):
        self.gens = 0
        self.kernel_cpu_ns = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="refkernel", daemon=True)
        self._thread.start()
        self._cpu0 = time.thread_time_ns()
        return self

    def _sample(self) -> None:
        while True:
            t0 = time.thread_time_ns()
            kernel()
            self.kernel_cpu_ns += time.thread_time_ns() - t0
            self.gens += 1
            if self._stop.wait(PAUSE_S):
                return

    def __exit__(self, *exc) -> None:
        self.caller_cpu_ns = time.thread_time_ns() - self._cpu0
        self._stop.set()
        self._thread.join()

    @property
    def seconds(self) -> float:
        return normalised_s(self.caller_cpu_ns, self.kernel_cpu_ns, self.gens)
