"""ServingCluster: open-loop loop, admission, autoscaling, identity.

Everything here runs under a fake clock whose ``advance`` doubles as
the cluster's sleep, and all but the deadline-shedding test run serial
dispatch, so each test is a deterministic function of the seeds: same
arrivals, same admission decisions, same batching, same latencies, run
after run.  Deadline shedding needs replicas that stay busy while the
loop runs, so it paces thread replicas in wall time.
"""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.serve import (
    AdmissionPolicy,
    AutoscalerPolicy,
    ServeConfig,
    ServingCluster,
    TenantSpec,
    TrafficShape,
)
from repro.telemetry.request import serving_report

pytestmark = pytest.mark.serve

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
CONFIG = PrimeConfig(
    crossbar=CrossbarParams(
        rows=32, cols=32, sense_amps=8, device=NOISE_FREE
    ),
    organization=MemoryOrganization(
        subarrays_per_bank=8,
        mats_per_subarray=16,
        mat_rows=32,
        mat_cols=32,
    ),
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _tenant(name, seed, **kw):
    topology = parse_topology(name, "24-20-6")
    network = topology.build(rng=np.random.default_rng(seed))
    samples = np.random.default_rng(seed + 100).standard_normal((16, 24))
    defaults = dict(
        topology=topology,
        network=network,
        samples=samples,
        rate_rps=20_000.0,
        seed=seed,
        replicas=2,
        serve_config=ServeConfig(
            mode="serial", max_batch=8, max_wait_s=2e-4
        ),
        calibration=samples,
    )
    defaults.update(kw)
    return TenantSpec(**defaults)


def _cluster(tenants, **kw):
    clock = FakeClock()
    defaults = dict(
        config=CONFIG, clock=clock, sleep=clock.advance
    )
    defaults.update(kw)
    return ServingCluster(tenants, **defaults), clock


class TestConstruction:
    def test_rejects_empty_and_duplicate_tenants(self):
        with pytest.raises(ConfigurationError):
            ServingCluster([], config=CONFIG)
        with pytest.raises(ConfigurationError):
            ServingCluster(
                [_tenant("dup", 1), _tenant("dup", 2)], config=CONFIG
            )

    def test_tenants_get_disjoint_grants(self):
        cluster, _ = _cluster([_tenant("c-a", 1), _tenant("c-b", 2)])
        with cluster:
            banks_a = set(cluster.runtime("c-a").deployment.banks)
            banks_b = set(cluster.runtime("c-b").deployment.banks)
            assert banks_a and banks_b
            assert banks_a.isdisjoint(banks_b)
        with pytest.raises(ConfigurationError):
            cluster.runtime("nope")


class TestOpenLoopRun:
    def test_completes_everything_without_admission_policy(self):
        cluster, _ = _cluster([_tenant("all-a", 3)])
        with cluster:
            report = cluster.run(50)
        tenant = report.tenants[0]
        assert tenant.offered == 50
        assert tenant.admitted == 50
        assert tenant.completed == 50
        assert tenant.shed == 0
        assert tenant.goodput_rps > 0
        assert 0.0 <= tenant.replica_idle_fraction <= 1.0
        assert report.completed == 50

    def test_deterministic_under_fake_clock(self):
        def once():
            cluster, _ = _cluster(
                [
                    _tenant(
                        "det-a",
                        5,
                        admission=AdmissionPolicy(max_queue_depth=12),
                        shape=TrafficShape.burst(
                            4.0, period_s=0.01, burst_len_s=0.002
                        ),
                    )
                ]
            )
            with cluster:
                report = cluster.run(120)
            t = report.tenants[0]
            latencies = tuple(
                r.latency_s for r in t.requests
            )
            return (
                t.admitted,
                t.shed_queue,
                t.completed,
                report.duration_s,
                latencies,
            )

        assert once() == once()

    def test_queue_depth_shedding_and_conservation(self):
        cluster, _ = _cluster(
            [
                _tenant(
                    "shed-a",
                    7,
                    rate_rps=100_000.0,
                    admission=AdmissionPolicy(max_queue_depth=4),
                )
            ]
        )
        with cluster:
            report = cluster.run(150)
        tenant = report.tenants[0]
        assert tenant.shed_queue > 0
        assert tenant.offered == tenant.admitted + tenant.shed_queue
        assert tenant.admitted == tenant.completed
        assert 0.0 < tenant.shed_rate < 1.0

    def test_deadline_shedding(self):
        # A batcher that never fills (max_batch huge, max_wait long)
        # behind busy replicas forces queued requests past the deadline
        # before dispatch.  Pacing holds each replica thread for 50 ms
        # of wall time (a paced batch never runs inline), while the
        # idle loop advances the fake clock far past the deadline.
        cluster, _ = _cluster(
            [
                _tenant(
                    "dead-a",
                    9,
                    rate_rps=50_000.0,
                    serve_config=ServeConfig(
                        mode="thread",
                        max_batch=256,
                        max_wait_s=10.0,
                        pace_batch_s=0.05,
                    ),
                    admission=AdmissionPolicy(deadline_s=5e-4),
                )
            ]
        )
        with cluster:
            report = cluster.run(100)
        tenant = report.tenants[0]
        assert tenant.shed_deadline > 0
        assert tenant.admitted == tenant.completed + tenant.shed_deadline
        # dropped requests never completed
        assert len(tenant.requests) == tenant.completed

    def test_pipelined_and_synchronous_agree_bitwise(self):
        def run(pipelined):
            cluster, _ = _cluster(
                [_tenant("agree-a", 13)], pipelined=pipelined
            )
            with cluster:
                report = cluster.run(60)
            return report.tenants[0]

        piped = run(True)
        sync = run(False)
        assert piped.completed == sync.completed == 60
        for a, b in zip(piped.requests, sync.requests):
            assert np.array_equal(a.result, b.result)

    def test_results_bit_identical_to_reference(self):
        cluster, _ = _cluster(
            [_tenant("ref-a", 17), _tenant("ref-b", 19)]
        )
        with cluster:
            report = cluster.run(40)
            for state in cluster._states:
                done = [r for r in state.requests if r.done]
                got = np.stack([r.result for r in done])
                ref = state.runtime.reference(
                    np.stack([r.x for r in done])
                )
                assert np.array_equal(got, ref)
        assert report.completed == 80

    def test_run_validation(self):
        cluster, _ = _cluster([_tenant("val-a", 21)])
        with cluster:
            with pytest.raises(ConfigurationError):
                cluster.run(0)


class TestAutoscaling:
    def test_burst_grows_then_shrinks(self):
        cluster, _ = _cluster(
            [
                _tenant(
                    "auto-a",
                    23,
                    rate_rps=30_000.0,
                    replicas=1,
                    autoscaler=AutoscalerPolicy(
                        max_replicas=4,
                        window_s=0.002,
                        cooldown_s=0.001,
                        service_rate_rps=5_000.0,
                    ),
                )
            ]
        )
        with cluster:
            report = cluster.run(300)
        tenant = report.tenants[0]
        assert tenant.scale_events
        assert any(
            e.direction == "grow" for e in tenant.scale_events
        )
        grow = next(
            e for e in tenant.scale_events if e.direction == "grow"
        )
        assert grow.bringup_s > 0.0
        assert tenant.completed == tenant.admitted

    def test_scale_events_visible_in_telemetry(self):
        telemetry.enable()
        cluster, _ = _cluster(
            [
                _tenant(
                    "span-a",
                    29,
                    rate_rps=30_000.0,
                    replicas=1,
                    autoscaler=AutoscalerPolicy(
                        max_replicas=3,
                        window_s=0.002,
                        cooldown_s=0.001,
                        service_rate_rps=5_000.0,
                    ),
                )
            ]
        )
        with cluster:
            cluster.run(200)
        session = telemetry.session()
        spans = [
            s for s in session.tracer.spans if s.name == "serve.scale"
        ]
        assert spans
        assert spans[0].attrs["direction"] == "grow"
        assert (
            telemetry.counter_total("serve.scale_events")
            == len(spans)
        )
        hist = session.metrics.histogram(
            "serve.scale.bringup_ms",
            tenant="span-a",
            direction="grow",
        )
        assert hist.count >= 1
        assert hist.maximum > 0.0

    def test_grow_clamped_by_shared_pool(self):
        # Tenant B claims most of the pool; A's autoscaler wants 8
        # replicas but the free banks cannot host them.
        cluster, _ = _cluster(
            [
                _tenant(
                    "clamp-a",
                    31,
                    rate_rps=100_000.0,
                    replicas=1,
                    autoscaler=AutoscalerPolicy(
                        max_replicas=8,
                        window_s=0.002,
                        cooldown_s=0.0,
                        service_rate_rps=1_000.0,
                    ),
                ),
                _tenant("clamp-b", 37, replicas=6, rate_rps=1_000.0),
            ]
        )
        with cluster:
            report = cluster.run(200)
            total = CONFIG.organization.total_banks
            granted = sum(
                len(s.runtime.deployment.banks)
                for s in cluster._states
            )
            assert granted <= total
        tenant = report.tenant("clamp-a")
        assert tenant.replicas_final <= 8


class TestSaturationReport:
    def test_serving_report_gains_saturation_fields(self):
        telemetry.enable()
        cluster, _ = _cluster(
            [
                _tenant(
                    "sat-a",
                    41,
                    rate_rps=100_000.0,
                    admission=AdmissionPolicy(max_queue_depth=4),
                )
            ]
        )
        with cluster:
            cluster.run(150)
        report = serving_report()
        tenant = next(
            t for t in report.tenants if t.tenant == "sat-a"
        )
        assert tenant.offered > 0
        assert tenant.shed > 0
        assert tenant.shed_by_reason.get("queue_depth", 0) == tenant.shed
        assert 0.0 < tenant.shed_rate < 1.0
        assert tenant.p999_ms >= tenant.p99_ms
        payload = report.to_json()["tenants"][0]
        for key in (
            "p999_ms",
            "offered",
            "shed",
            "shed_rate",
            "shed_by_reason",
        ):
            assert key in payload
