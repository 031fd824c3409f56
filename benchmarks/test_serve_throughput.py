"""Serving-runtime throughput microbenchmark (MLP-L).

Not a paper figure — this tracks the tentpole acceptance criterion of
the serving runtime across PRs: a closed-loop client population served
through micro-batching and replica dispatch must sustain at least 3x
the steady-state throughput of sequential per-request
``run_functional`` calls on the same programmed network, while the
``serve.latency_ms`` telemetry histogram reports p50/p99.  Wall times
land in ``BENCH_summary.json`` for ``compare_bench.py``.

Also hosts the observability-is-free-when-off micro-gate: with
telemetry disabled, serving throughput (normalised by the sequential
baseline measured on the same machine, so the gate is
machine-independent) must stay within 5% of the pre-observability
baseline recorded in ``BENCH_baseline.json``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.serve import LoadGenerator, ServeConfig, ServingRuntime

pytestmark = pytest.mark.serve

#: Closed-loop requests per measured run.
REQUESTS = 256
#: Replica bank groups granted to the serving deployment.
REPLICAS = 2
#: Allowed relative throughput loss vs the recorded baseline for the
#: telemetry-disabled overhead gate.
OVERHEAD_BUDGET = 0.05


@pytest.fixture(scope="module")
def workload():
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(7))
    features = int(np.prod(topology.input_shape))
    samples = np.random.default_rng(11).random((REQUESTS, features))
    return topology, net, samples


@pytest.fixture(scope="module")
def runtime(workload):
    topology, net, samples = workload
    runtime = ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="auto"),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    )
    # Two replicas: ``auto`` runs them as threads over one copy.
    assert runtime.mode == "thread"
    yield runtime
    runtime.close()


@pytest.fixture(scope="module")
def sequential(workload):
    """The per-request baseline: same programmed state, batch of 1."""
    topology, net, samples = workload
    executor = PrimeExecutor()
    plan = PrimeCompiler(DEFAULT_PRIME_CONFIG).compile(topology)
    programmed = executor.program_network(net, plan)
    executor.run_functional(
        net, plan, samples[:64], programmed=programmed
    )

    def run(n: int) -> float:
        """Serve ``n`` single-sample requests; returns requests/s."""
        start = time.perf_counter()
        for i in range(n):
            executor.run_functional(
                net,
                plan,
                samples[i : i + 1],
                programmed=programmed,
            )
        return n / (time.perf_counter() - start)

    return run


def test_serve_sequential_baseline_mlp_l(once, sequential):
    rate = once(sequential, REQUESTS)
    assert rate > 0


def test_serve_loadgen_mlp_l(once, runtime, workload):
    _, _, samples = workload
    telemetry.enable()
    try:
        generator = LoadGenerator(runtime, samples)
        generator.warmup()
        report = once(generator.run, REQUESTS)
        assert report.requests == REQUESTS
        assert report.replicas == REPLICAS
        assert report.analytical_rps > 0
        p50 = telemetry.percentile(
            "serve.latency_ms", 50.0, tenant=runtime.tenant
        )
        p99 = telemetry.percentile(
            "serve.latency_ms", 99.0, tenant=runtime.tenant
        )
        assert 0 < p50 <= p99
        print()
        print(report.summary())
    finally:
        telemetry.disable()


def _baseline_speedup() -> float | None:
    """Serving-over-sequential speedup recorded in the bench baseline.

    The ratio of two wall times measured on the same machine is the
    machine-normalised quantity the overhead gate compares against; it
    cancels absolute CPU speed, so the gate holds on any host.
    """
    path = Path(__file__).parent / "BENCH_baseline.json"
    if not path.exists():
        return None
    marks = json.loads(path.read_text()).get("benchmarks", {})
    serve = marks.get("test_serve_loadgen_mlp_l", {}).get("wall_s")
    seq = marks.get("test_serve_sequential_baseline_mlp_l", {}).get(
        "wall_s"
    )
    if not serve or not seq:
        return None
    return seq / serve


def test_serve_telemetry_off_overhead(runtime, sequential, workload):
    """Micro-gate: observability must be free when off.

    With no telemetry session, every instrumented hook is one attribute
    load and one ``is None`` test — so telemetry-disabled serving
    throughput (normalised by the sequential baseline on the same
    machine) must stay within ``OVERHEAD_BUDGET`` of the recorded
    pre-observability baseline.
    Best-of-3 on both sides shaves scheduler noise.
    """
    baseline = _baseline_speedup()
    assert baseline is not None, "bench baseline missing serve entries"
    _, _, samples = workload
    assert not telemetry.enabled()
    generator = LoadGenerator(runtime, samples)
    generator.warmup()
    serve_rps = max(
        generator.run(REQUESTS).throughput_rps for _ in range(3)
    )
    sequential_rps = max(sequential(128) for _ in range(3))
    speedup = serve_rps / sequential_rps
    floor = baseline * (1.0 - OVERHEAD_BUDGET)
    print()
    print(
        f"telemetry off: {speedup:.2f}x over sequential "
        f"(baseline {baseline:.2f}x, floor {floor:.2f}x)"
    )
    assert speedup >= floor, (
        f"telemetry-disabled serving dropped to {speedup:.2f}x over "
        f"sequential; the pre-observability baseline was "
        f"{baseline:.2f}x (-{OVERHEAD_BUDGET:.0%} floor {floor:.2f}x)"
    )


def test_serve_speedup_over_sequential(runtime, sequential, workload):
    """The acceptance criterion: >= 3x sequential, percentiles metered."""
    _, _, samples = workload
    telemetry.enable()
    try:
        generator = LoadGenerator(runtime, samples)
        generator.warmup()
        sequential_rate = sequential(128)
        report = generator.run(REQUESTS)
        speedup = report.throughput_rps / sequential_rate
        p50 = telemetry.percentile(
            "serve.latency_ms", 50.0, tenant=runtime.tenant
        )
        p99 = telemetry.percentile(
            "serve.latency_ms", 99.0, tenant=runtime.tenant
        )
        print()
        print(
            f"serving {report.throughput_rps:,.0f} req/s vs sequential "
            f"{sequential_rate:,.0f} req/s -> {speedup:.2f}x "
            f"(p50={p50:.2f} ms, p99={p99:.2f} ms, mode={report.mode})"
        )
        assert 0 < p50 <= p99
        assert speedup >= 3.0, (
            f"serving only {speedup:.2f}x over sequential "
            f"({report.throughput_rps:,.0f} vs {sequential_rate:,.0f} "
            "req/s)"
        )
    finally:
        telemetry.disable()
