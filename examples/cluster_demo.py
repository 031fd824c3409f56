"""Open-loop multi-tenant serving: pipelining, shedding, autoscaling.

The paper's datacenter scenario, scaled out: two MLP-L deployments
share the bank pool on disjoint grants, driven by an open-loop Poisson
arrival process.  The demo first shows the tentpole — pipelined
multi-model dispatch keeps every tenant's replicas busy, while the
synchronous per-model pump strands half the device time — then pushes
one tenant past capacity to show queue-depth admission control and the
reactive autoscaler growing the grant (a new replica thread over the
programmed copy, whose cost is measured and traced).

Replica execution is paced (``pace_batch_s``): each micro-batch holds
its replica for an emulated device service time, the way a PRIME bank
group is busy while the host coordinates, so the dispatch comparison
reads the same on any machine.  Computed values are untouched.

Run:  python examples/cluster_demo.py
Writes ``cluster_trace.json`` (load in Perfetto / chrome://tracing)
and ``saturation_report.json`` next to the working directory.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.eval.workloads import get_workload
from repro.nn.topology import NetworkTopology
from repro.serve import (
    AdmissionPolicy,
    AutoscalerPolicy,
    ServeConfig,
    ServingCluster,
    TenantSpec,
    TrafficShape,
)

REQUESTS = 128
MAX_BATCH = 32
PACE_S = 0.04
#: Per-replica capacity at the paced service time.
CAPACITY_RPS = MAX_BATCH / PACE_S

SERVE_CONFIG = ServeConfig(
    mode="thread",
    max_batch=MAX_BATCH,
    max_wait_s=0.05,
    pace_batch_s=PACE_S,
)


def _tenant(name: str, seed: int, **kw) -> TenantSpec:
    base = get_workload("MLP-L").topology()
    topology = NetworkTopology(name, base.specs, base.input_shape)
    network = topology.build(rng=np.random.default_rng(seed))
    features = int(np.prod(base.input_shape))
    samples = np.random.default_rng(seed + 100).random((64, features))
    spec = TenantSpec(
        topology=topology,
        network=network,
        samples=samples,
        rate_rps=50_000.0,
        seed=seed,
        replicas=1,
        serve_config=SERVE_CONFIG,
        calibration=samples,
    )
    for key, value in kw.items():
        setattr(spec, key, value)
    return spec


def main() -> None:
    # -- tentpole: pipelined vs synchronous per-model pump -------------
    reports = {}
    for pipelined in (False, True):
        cluster = ServingCluster(
            [_tenant("mlp-l-a", 7), _tenant("mlp-l-b", 11)],
            pipelined=pipelined,
        )
        with cluster:
            cluster.warmup()
            report = cluster.run(REQUESTS)
            # bit-identity oracle: every served result equals a direct
            # run_functional on the same programmed state
            for state in cluster._states:
                done = [r for r in state.requests if r.done]
                got = np.stack([r.result for r in done])
                ref = state.runtime.reference(
                    np.stack([r.x for r in done])
                )
                assert np.array_equal(got, ref)
        reports[pipelined] = report
        print(report.summary())
        print()
    ratio = reports[True].goodput_rps / reports[False].goodput_rps
    print(f"pipelined/sync aggregate goodput: {ratio:.2f}x")
    print("bit-identity vs reference (both modes, both tenants): OK")
    print()

    # -- saturation: admission control + reactive autoscaling ----------
    telemetry.enable()
    overloaded = _tenant(
        "mlp-l-hot",
        13,
        rate_rps=3.5 * CAPACITY_RPS,
        shape=TrafficShape.burst(3.0, period_s=0.2, burst_len_s=0.05),
        admission=AdmissionPolicy(max_queue_depth=96),
        autoscaler=AutoscalerPolicy(
            max_replicas=2,
            window_s=0.2,
            cooldown_s=5.0,
            service_rate_rps=CAPACITY_RPS,
        ),
    )
    with ServingCluster([overloaded], pipelined=True) as cluster:
        cluster.warmup()
        report = cluster.run(2 * REQUESTS)
    tenant = report.tenants[0]
    print(tenant.summary())
    for event in tenant.scale_events:
        print(
            f"autoscaler {event.direction} {event.from_replicas}->"
            f"{event.to_replicas} at {event.rate_rps:,.0f} rps "
            f"observed, cost {event.bringup_s * 1e3:,.0f} ms"
        )

    serving = telemetry.serving_report()
    print()
    print(serving.text())

    trace_path = Path("cluster_trace.json")
    telemetry.write_chrome_trace(trace_path)
    report_path = Path("saturation_report.json")
    report_path.write_text(json.dumps(serving.to_json(), indent=1))
    print(
        f"wrote {trace_path} (cluster loop + per-replica tracks, "
        "scale spans; open in Perfetto) and "
        f"{report_path}"
    )


if __name__ == "__main__":
    main()
