"""End-to-end request tracing, replica tracks, and SLO monitoring.

The acceptance bar of the observability layer:

* serial and thread dispatch of the same traffic record
  **bit-identical counter totals** and the same span-name set — replica
  telemetry is a pure function of the work, wherever it runs;
* the Chrome trace shows the coordinator and each replica on distinct
  pid tracks, with per-request lifecycle spans
  (enqueue → batcher → queue → replica → reply);
* ``serving_report()`` per-stage times sum to the measured end-to-end
  latency within 1%;
* :class:`LoadReport` percentiles match ``telemetry.percentile`` on the
  tenant-labelled latency histogram exactly.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import telemetry
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import LoadGenerator, ServeConfig, ServingRuntime
from repro.telemetry.export import WALL_PID, chrome_trace_events

pytestmark = pytest.mark.serve

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
SMALL_ORG = MemoryOrganization(
    subarrays_per_bank=8,
    mats_per_subarray=16,
    mat_rows=32,
    mat_cols=32,
)
TOPOLOGY = parse_topology("serve-tiny", "24-20-6")


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _small_config() -> PrimeConfig:
    return PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, device=NOISE_FREE
        ),
        organization=SMALL_ORG,
        resilience=ResiliencePolicy(),
    )


@pytest.fixture(scope="module")
def network():
    return TOPOLOGY.build(rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def samples():
    return np.random.default_rng(11).standard_normal((20, 24))


def _runtime(network, samples, mode, max_replicas=2, **serve_kw):
    serve_kw.setdefault("max_batch", 5)
    return ServingRuntime(
        network,
        TOPOLOGY,
        config=_small_config(),
        serve_config=ServeConfig(mode=mode, **serve_kw),
        calibration=samples,
        max_replicas=max_replicas,
    )


def _counter_totals(session) -> dict:
    # The ``mode=`` label names the dispatch mode by design — strip it
    # so the *counts* still have to match across modes.
    return {
        (
            c.name,
            tuple(
                sorted(
                    (k, v)
                    for k, v in c.labels.items()
                    if k != "mode"
                )
            ),
        ): c.value
        for c in session.metrics.counters()
    }


def _serve_session(network, samples, mode, max_replicas):
    """One full serve() run under a fresh session; returns the session."""
    session = telemetry.enable()
    with _runtime(
        network, samples, mode, max_replicas=max_replicas
    ) as runtime:
        runtime.serve(samples)
    telemetry.disable()
    return session


class TestTraceContext:
    def test_requests_carry_deterministic_trace_ids(
        self, network, samples
    ):
        with _runtime(network, samples, "serial") as runtime:
            first = runtime.submit(samples[0])
            second = runtime.submit(samples[1])
            runtime.pump(flush=True)
        assert first.tenant == runtime.tenant
        assert first.trace_id == f"{runtime.tenant}-00000000"
        assert second.trace_id == f"{runtime.tenant}-00000001"
        ctx = first.trace
        assert ctx.tenant == runtime.tenant
        assert ctx.arrival_s == first.t_enqueue

    def test_lifecycle_timestamps_are_ordered(self, network, samples):
        with _runtime(network, samples, "serial") as runtime:
            request = runtime.submit(samples[0])
            runtime.pump(flush=True)
        assert (
            request.t_enqueue
            <= request.t_batched
            <= request.t_dispatched
            <= request.t_done
        )


class TestSerialThreadDeterminism:
    def test_counter_totals_bit_identical_single_replica(
        self, network, samples
    ):
        """With one replica each, the full counter set (programming
        included) is bit-identical between dispatch modes."""
        serial = _serve_session(network, samples, "serial", 1)
        thread = _serve_session(network, samples, "thread", 1)
        assert _counter_totals(serial) == _counter_totals(thread)

    def test_span_name_sets_match(self, network, samples):
        serial = _serve_session(network, samples, "serial", 1)
        thread = _serve_session(network, samples, "thread", 1)
        assert {s.name for s in serial.tracer.spans} == {
            s.name for s in thread.tracer.spans
        }

    def test_execution_counters_identical_two_replicas(
        self, network, samples
    ):
        """With two replicas, warm both runtimes, then compare a fresh
        measured window: pure execution, bit-identical across modes."""
        sessions = {}
        for mode in ("serial", "thread"):
            telemetry.enable()
            with _runtime(
                network, samples, mode, max_replicas=2
            ) as runtime:
                assert runtime.replicas == 2
                runtime.serve(samples)
                assert telemetry.counter_total("serve.programs") == 1
                session = telemetry.enable(fresh=True)
                runtime.serve(samples)
            sessions[mode] = session
            telemetry.disable()
        assert _counter_totals(sessions["serial"]) == _counter_totals(
            sessions["thread"]
        )

    def test_histogram_counts_match_across_modes(self, network, samples):
        serial = _serve_session(network, samples, "serial", 1)
        thread = _serve_session(network, samples, "thread", 1)

        def counts(session):
            return {
                (h.name, tuple(sorted(h.labels.items()))): h.count
                for h in session.metrics.histograms()
            }

        assert counts(serial) == counts(thread)


class TestChromeTraceExport:
    def test_replicas_get_distinct_pid_tracks(self, network, samples):
        session = _serve_session(network, samples, "thread", 2)
        events = chrome_trace_events(session)
        json.dumps(events)  # valid JSON
        names = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e.get("ph") == "M"
        }
        assert "wall clock (coordinator)" in names
        replica_pids = {
            pid
            for label, pid in names.items()
            if label.startswith("wall clock (replica:")
        }
        assert {
            label
            for label in names
            if label.startswith("wall clock (replica:")
        } == {"wall clock (replica:0)", "wall clock (replica:1)"}
        assert len(replica_pids) == 2
        assert WALL_PID not in replica_pids
        # Each replica's forward landed on its own pid.
        span_pids = {
            e["pid"]
            for e in events
            if e.get("ph") == "X" and e["name"] == "executor.run_functional"
        }
        assert replica_pids <= span_pids

    def test_per_request_spans_cover_enqueue_to_reply(
        self, network, samples
    ):
        session = _serve_session(network, samples, "serial", 1)
        spans = session.tracer.spans
        requests = [s for s in spans if s.name == "serve.request"]
        assert len(requests) == len(samples)
        for parent in requests:
            children = [
                s for s in spans if s.parent_index == parent.index
            ]
            stages = {s.name for s in children}
            assert stages == {
                "serve.request.batcher",
                "serve.request.queue",
                "serve.request.replica",
            }
            # Children tile the parent contiguously.
            ordered = sorted(children, key=lambda s: s.start_ns)
            assert ordered[0].start_ns == parent.start_ns
            assert ordered[-1].end_ns == parent.end_ns
            for left, right in zip(ordered, ordered[1:]):
                assert left.end_ns == right.start_ns
            assert "trace_id" in parent.attrs


class TestServingReport:
    def test_stage_sums_match_end_to_end_latency(self, network, samples):
        session = _serve_session(network, samples, "thread", 2)
        tracks = {
            s.track
            for s in session.tracer.spans
            if s.name == "executor.run_functional"
        }
        assert {"replica:0", "replica:1"} <= tracks
        report = telemetry.serving_report(session)
        (tenant,) = report.tenants
        assert tenant.requests == len(samples)
        assert tenant.coverage == pytest.approx(1.0, abs=0.01)
        assert sum(tenant.stage_mean_ms.values()) == pytest.approx(
            tenant.mean_ms, rel=0.01
        )

    def test_slo_rows_evaluate_against_served_traffic(
        self, network, samples
    ):
        session = _serve_session(network, samples, "serial", 1)
        monitor = telemetry.SLOMonitor(
            [
                telemetry.SLOObjective(
                    TOPOLOGY.name, percentile=95.0, threshold_ms=1e4
                )
            ]
        )
        report = telemetry.serving_report(session, slo=monitor)
        (status,) = report.slo
        assert status.requests == len(samples)
        assert status.met
        assert status.attainment == 1.0


class TestLoadReportParity:
    def test_report_percentiles_match_telemetry_histogram(
        self, network, samples
    ):
        """Satellite 2: LoadReport and the tenant-labelled telemetry
        histogram are two views of the same samples — identical
        nearest-rank percentiles."""
        with _runtime(network, samples, "serial") as runtime:
            generator = LoadGenerator(runtime, samples)
            generator.warmup()
            # Fresh session after warmup: the histogram then holds
            # exactly the measured window's requests.
            telemetry.enable(fresh=True)
            report = generator.run(40)
        tenant = report.tenant
        assert tenant == runtime.tenant
        hist = telemetry.session().metrics.histogram(
            "serve.latency_ms", tenant=tenant
        )
        assert hist.count == 40
        for q, expected in (
            (50.0, report.p50_ms),
            (95.0, report.p95_ms),
            (99.0, report.p99_ms),
        ):
            assert (
                telemetry.percentile(
                    "serve.latency_ms", q, tenant=tenant
                )
                == expected
            )
        assert hist.mean == pytest.approx(report.mean_ms)


class TestPumpGauges:
    def test_queue_and_inflight_gauges_sampled_each_pump(
        self, network, samples
    ):
        telemetry.enable()
        with _runtime(network, samples, "serial") as runtime:
            runtime.serve(samples)
            tenant = runtime.tenant
        assert (
            telemetry.gauge_value("serve.inflight_batches", tenant=tenant)
            == 0
        )
        assert (
            telemetry.gauge_value("serve.queue_depth", tenant=tenant) == 0
        )
        occupancy = telemetry.session().metrics.histogram(
            "serve.batch_occupancy", tenant=tenant
        )
        assert occupancy.count == 4  # 20 samples / max_batch 5
        assert occupancy.maximum <= 1.0


class TestTelemetryDisabled:
    def test_no_telemetry_nothing_recorded(self, network, samples):
        """With telemetry off at deploy time nothing records — in
        either mode, on the coordinator or on a replica thread — so
        observability is free when off."""
        for mode in ("serial", "thread"):
            with _runtime(network, samples, mode) as runtime:
                out = runtime.serve(samples)
            assert out.shape == (len(samples), 6)
            assert telemetry.session() is None
            with pytest.raises(RuntimeError):
                telemetry.snapshot()

    def test_outputs_identical_with_and_without_telemetry(
        self, network, samples
    ):
        with _runtime(network, samples, "serial") as runtime:
            plain = runtime.serve(samples)
        telemetry.enable()
        with _runtime(network, samples, "serial") as runtime:
            traced = runtime.serve(samples)
        np.testing.assert_array_equal(plain, traced)
