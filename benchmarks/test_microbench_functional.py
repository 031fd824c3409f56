"""Microbenchmarks of the compiled functional execution path.

Not a paper figure — these time ``run_functional`` on the Fig. 6
pipeline's largest MLC workload (MLP-L) through the plan-compiled
fast path (the default) and through the ``PRIME_FUSED=0`` per-engine
walk, so each path's speed is tracked across PRs and a regression in
either is visible to ``compare_bench.py``.

One gate asserts, as an in-run ratio (both sides measured
back-to-back on the same machine, so the gate is machine-normalised),
that the fast path is at least 3x faster than the per-engine walk at
batch 16, with identical outputs and identical hardware-firing
counters.
"""

import os
import time

import numpy as np
import pytest

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG

#: Benchmark batch: small enough that per-call overhead (not BLAS
#: throughput) dominates the fallback, which is the regime inference
#: serving actually runs in.
BATCH = 16
ITERATIONS = 10


@pytest.fixture(scope="module")
def mlp_l():
    """MLP-L programmed onto ideal engines, calibration frozen."""
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(7))
    executor = PrimeExecutor()
    plan = PrimeCompiler(DEFAULT_PRIME_CONFIG).compile(topology)
    programmed = executor.program_network(net, plan)
    features = int(np.prod(topology.input_shape))
    x = np.random.default_rng(11).random((BATCH, features))
    # Freeze per-layer calibration so the timed region is steady-state
    # inference, the same work both paths repeat.
    executor.run_functional(net, plan, x, programmed=programmed)
    return executor, net, plan, programmed, x


def _run(mlp_l):
    executor, net, plan, programmed, x = mlp_l
    return executor.run_functional(net, plan, x, programmed=programmed)


def _best_of(fn, repeats):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return min(walls)


def test_functional_fused_mlp_l(once, mlp_l):
    out = once(lambda: [_run(mlp_l) for _ in range(ITERATIONS)])
    assert out[0].shape == (BATCH, 10)


def test_functional_fallback_mlp_l(once, mlp_l):
    os.environ["PRIME_FUSED"] = "0"
    try:
        out = once(lambda: [_run(mlp_l) for _ in range(ITERATIONS)])
    finally:
        os.environ.pop("PRIME_FUSED", None)
    assert out[0].shape == (BATCH, 10)


def test_fused_speedup_and_parity(mlp_l):
    """Fused >= 3x over the fallback, bit-identical, same counters."""
    executor, net, plan, programmed, x = mlp_l

    def firings():
        return [
            (e.mvm_invocations, e.sa_conversions)
            for layer in programmed
            for row in layer.tiles
            for e in row
        ]

    before = firings()
    fused_out = _run(mlp_l)
    after_fused = firings()
    os.environ["PRIME_FUSED"] = "0"
    try:
        fallback_out = _run(mlp_l)
        after_fallback = firings()
        fallback_wall = _best_of(lambda: _run(mlp_l), 3)
    finally:
        os.environ.pop("PRIME_FUSED", None)
    fused_wall = _best_of(lambda: _run(mlp_l), 5)

    assert np.array_equal(fused_out, fallback_out)
    fused_delta = [
        (a[0] - b[0], a[1] - b[1])
        for a, b in zip(after_fused, before)
    ]
    fallback_delta = [
        (a[0] - b[0], a[1] - b[1])
        for a, b in zip(after_fallback, after_fused)
    ]
    assert fused_delta == fallback_delta
    assert all(inv == BATCH for inv, _ in fused_delta)
    speedup = fallback_wall / fused_wall
    assert speedup >= 3.0, (
        f"fused path only {speedup:.2f}x faster "
        f"({fused_wall * 1e3:.1f} ms vs {fallback_wall * 1e3:.1f} ms)"
    )


def _run_batch(mlp_l, n):
    executor, net, plan, programmed, x = mlp_l
    return executor.run_functional(
        net, plan, x[:n], programmed=programmed
    )


def test_functional_compiled_b1_mlp_l(once, mlp_l):
    """Batch-1 latency of the default (plan-compiled) path."""
    out = once(lambda: [_run_batch(mlp_l, 1) for _ in range(ITERATIONS)])
    assert out[0].shape == (1, 10)
