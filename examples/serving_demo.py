"""Serving a deployed network at micro-batched throughput.

The paper's datacenter scenario, made operational: deploy MLP-L onto
replica bank groups, serve a closed-loop request stream through the
dynamic micro-batcher and the replica threads, and compare against
sequential per-request execution on the same programmed state.  Also
demonstrates the bit-identity oracle, the end-to-end request tracing
(coordinator + per-replica Chrome trace tracks, per-stage latency
breakdown), and SLO monitoring.

Run:  python examples/serving_demo.py
Writes ``serving_trace.json`` (load in Perfetto / chrome://tracing)
and ``serving_report.json`` next to the working directory.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.serve import LoadGenerator, ServeConfig, ServingRuntime

REQUESTS = 256


def main() -> None:
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(7))
    samples = np.random.default_rng(11).random(
        (REQUESTS, *topology.input_shape)
    )

    telemetry.enable()

    # -- sequential baseline: program once, then batch-1 requests ------
    executor = PrimeExecutor()
    plan = PrimeCompiler(DEFAULT_PRIME_CONFIG).compile(topology)
    programmed = executor.program_network(net, plan)
    executor.run_functional(net, plan, samples[:64], programmed=programmed)
    start = time.perf_counter()
    for i in range(REQUESTS):
        executor.run_functional(
            net, plan, samples[i : i + 1], programmed=programmed
        )
    sequential_rate = REQUESTS / (time.perf_counter() - start)
    print(f"sequential per-request: {sequential_rate:,.0f} req/s")

    # -- serving runtime: micro-batching over replica threads ----------
    # Cap the micro-batch below the request count so the measured run
    # spans several batches — traffic round-robins both replicas and
    # the trace shows every replica track.
    with ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="auto", max_batch=64),
        calibration=samples[:64],
        max_replicas=2,
    ) as runtime:
        print(
            f"deployed {runtime.name}: {runtime.replicas} replica(s), "
            f"micro-batch {runtime.max_batch}, mode {runtime.mode}"
        )

        generator = LoadGenerator(runtime, samples)
        generator.warmup()
        # Fresh telemetry session so the histograms and the merged
        # trace cover only the measured run, not the warmup.
        telemetry.enable()
        report = generator.run(REQUESTS)
        print(report.summary())
        print(
            f"speedup over sequential: "
            f"{report.throughput_rps / sequential_rate:.1f}x"
        )
        tenant = report.tenant
        p50 = telemetry.percentile(
            "serve.latency_ms", 50.0, tenant=tenant
        )
        p99 = telemetry.percentile(
            "serve.latency_ms", 99.0, tenant=tenant
        )
        print(
            f"telemetry serve.latency_ms{{tenant={tenant}}}: "
            f"p50={p50:.1f} ms p99={p99:.1f} ms"
        )

        # -- request tracing + SLO: per-stage breakdown ----------------
        monitor = telemetry.SLOMonitor(
            [
                telemetry.SLOObjective(
                    tenant, percentile=99.0, threshold_ms=2 * p99
                )
            ]
        )
        serving = telemetry.serving_report(slo=monitor)
        print()
        print(serving.text())

        trace_path = Path("serving_trace.json")
        telemetry.write_chrome_trace(trace_path)
        report_path = Path("serving_report.json")
        report_path.write_text(json.dumps(serving.to_json(), indent=1))
        print()
        print(
            f"wrote {trace_path} (coordinator + per-replica tracks; "
            "open in Perfetto) and "
            f"{report_path}"
        )

        # -- bit-identity: serving == direct run_functional ------------
        served = runtime.serve(samples[:8])
        reference = runtime.reference(samples[:8])
        assert np.array_equal(served, reference)
        print("bit-identity vs direct run_functional: OK")


if __name__ == "__main__":
    main()
