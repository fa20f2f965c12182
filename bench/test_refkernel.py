"""The reference-kernel normalisation.

Run with ``python -m pytest bench/test_refkernel.py``.
"""

import threading
import time
import types

import pytest

import refkernel


def test_normalised_time_is_caller_cpu_in_kernel_generations():
    # 3 s of caller CPU while a generation cost 2.5 ms: 1200 generations
    assert refkernel.normalised_s(3 * 10**9, 250 * 10**6, 100) == pytest.approx(
        1200 * refkernel.GEN_REF_S)


def test_a_host_twice_as_slow_reads_the_same():
    fast = refkernel.normalised_s(2 * 10**9, 100 * 10**6, 50)
    slow = refkernel.normalised_s(4 * 10**9, 200 * 10**6, 50)
    assert slow == pytest.approx(fast)


def test_pooled_time_uses_the_cost_per_generation_over_all_samplers():
    a = types.SimpleNamespace(caller_cpu_ns=60 * 10**6, kernel_cpu_ns=4 * 10**6, gens=1)
    b = types.SimpleNamespace(caller_cpu_ns=90 * 10**6, kernel_cpu_ns=2 * 10**6, gens=2)
    # 6 ms over 3 generations: 2 ms each
    assert refkernel.pooled_s([a, b]) == pytest.approx(
        [30 * refkernel.GEN_REF_S, 45 * refkernel.GEN_REF_S])


def test_kernel_is_deterministic():
    assert refkernel.kernel() == refkernel.kernel()


def test_sampler_samples_while_the_body_runs_and_stops_its_thread():
    before = threading.active_count()
    with refkernel.Sampler() as sampler:
        end = time.thread_time() + 0.2
        while time.thread_time() < end:
            pass
    assert threading.active_count() == before
    assert sampler.gens >= 2
    assert sampler.caller_cpu_ns >= 0.2e9
    assert sampler.seconds > 0
