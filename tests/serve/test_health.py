"""Fault tolerance: health policy, monitor, chaos plan, recovery.

Serial-mode coverage of the fault-tolerance layer — deterministic and
fast.  Thread-mode chaos (replica kills, hangs, drift, degrade to
serial) lives in ``test_chaos.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError, ExecutionError
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import ServeConfig, ServingRuntime
from repro.serve.dispatcher import (
    program_state,
    reprogram_state,
    run_programmed,
)
from repro.serve.health import (
    FaultEvent,
    FaultPlan,
    HealthPolicy,
    ReplicaHealthMonitor,
    apply_drift,
)

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


def _small_config(device=NOISE_FREE) -> PrimeConfig:
    return PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, device=device
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


#: Zero backoff keeps the serial recovery tests instant.
FAST = dict(backoff_base_s=0.0)


def _runtime(network, samples, **kw):
    serve_kw = dict(mode="serial", max_batch=5)
    serve_kw.update(kw.pop("serve", {}))
    defaults = dict(
        config=_small_config(),
        serve_config=ServeConfig(**serve_kw),
        calibration=samples,
        max_replicas=2,
    )
    defaults.update(kw)
    return ServingRuntime(network, TOPOLOGY, **defaults)


class TestHealthPolicy:
    def test_defaults_validate(self):
        HealthPolicy()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(batch_timeout_s=0.0),
            dict(batch_timeout_s=-1.0),
            dict(max_retries=-1),
            dict(backoff_base_s=-0.1),
            dict(backoff_factor=0.5),
            dict(suspect_limit=0),
            dict(latency_outlier_factor=1.0),
            dict(max_restarts_per_replica=-1),
            dict(probe_interval_batches=0),
            dict(drift_threshold=0.0),
            dict(on_exhausted="explode"),
        ],
    )
    def test_bad_knobs_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            HealthPolicy(**kw)

    def test_none_timeout_disables_deadline(self):
        assert HealthPolicy(batch_timeout_s=None).batch_timeout_s is None


class TestReplicaHealthMonitor:
    def test_routable_shrinks_under_quarantine(self):
        monitor = ReplicaHealthMonitor(3, HealthPolicy())
        assert monitor.routable() == [0, 1, 2]
        monitor.quarantine(1)
        assert monitor.routable() == [0, 2]
        monitor.revive(1)
        assert monitor.routable() == [0, 1, 2]
        assert monitor.replicas[1].restarts == 1

    def test_outlier_needs_baseline_and_streak(self):
        policy = HealthPolicy(
            suspect_limit=2, latency_outlier_factor=10.0
        )
        monitor = ReplicaHealthMonitor(1, policy)
        # First observation seeds the EMA; it can never be an outlier.
        assert monitor.record_success(0, 100.0, 4) is False
        # One outlier is a suspect, not yet a restart trigger.
        assert monitor.record_success(0, 5000.0, 4) is False
        assert monitor.replicas[0].suspect_count == 1
        # The second consecutive outlier crosses suspect_limit.
        assert monitor.record_success(0, 5000.0, 4) is True
        # A clean batch resets the streak.
        monitor.record_success(0, 100.0, 4)
        assert monitor.replicas[0].suspect_count == 0

    def test_outliers_do_not_poison_the_ema(self):
        monitor = ReplicaHealthMonitor(1, HealthPolicy())
        monitor.record_success(0, 1.0, 4)
        baseline = dict(monitor.replicas[0].ema_exec_s)
        monitor.record_success(0, 1000.0, 4)  # outlier
        assert monitor.replicas[0].ema_exec_s == baseline

    def test_wide_batches_judged_against_their_own_width(self):
        """A burst's wide batches are slow against 1-sample traffic
        but not against each other: the first of a width bucket seeds
        that bucket's baseline, so none is an outlier."""
        monitor = ReplicaHealthMonitor(1, HealthPolicy())
        for _ in range(20):
            assert monitor.record_success(0, 0.003, 1) is False
        for _ in range(5):
            assert monitor.record_success(0, 0.150, 256) is False
            assert monitor.replicas[0].suspect_count == 0
        assert set(monitor.replicas[0].ema_exec_s) == {1, 9}

    def test_slow_streak_of_one_width_still_restarts(self):
        monitor = ReplicaHealthMonitor(1, HealthPolicy(suspect_limit=3))
        for _ in range(20):
            monitor.record_success(0, 0.003, 1)
        for _ in range(5):
            monitor.record_success(0, 0.150, 256)
        assert monitor.record_success(0, 1.6, 256) is False
        assert monitor.record_success(0, 1.6, 256) is False
        assert monitor.record_success(0, 1.6, 256) is True

    def test_revive_forgets_every_baseline(self):
        monitor = ReplicaHealthMonitor(1, HealthPolicy())
        monitor.record_success(0, 0.003, 1)
        monitor.record_success(0, 0.150, 256)
        monitor.quarantine(0)
        monitor.revive(0)
        assert monitor.replicas[0].ema_exec_s == {}
        # After a restart a slow first batch only seeds the bucket.
        assert monitor.record_success(0, 30.0, 1) is False
        assert monitor.replicas[0].suspect_count == 0

    def test_restart_budget_then_retire(self):
        policy = HealthPolicy(max_restarts_per_replica=2)
        monitor = ReplicaHealthMonitor(2, policy)
        for _ in range(2):
            assert monitor.can_restart(0)
            monitor.quarantine(0)
            monitor.revive(0)
        assert not monitor.can_restart(0)
        monitor.retire(0)
        assert monitor.routable() == [1]
        monitor.retire(1)
        assert monitor.all_unhealthy

    def test_resize_grows_and_truncates(self):
        monitor = ReplicaHealthMonitor(2, HealthPolicy())
        monitor.resize(4)
        assert len(monitor) == 4
        monitor.resize(1)
        assert len(monitor) == 1
        with pytest.raises(ConfigurationError):
            monitor.resize(0)


class TestFaultPlan:
    def test_events_fire_exactly_once(self):
        plan = FaultPlan.of(
            FaultEvent(batch_index=2, kind="kill"),
            FaultEvent(batch_index=5, kind="slow", duration_s=1.0),
        )
        assert plan.remaining == 2
        assert plan.take(0) is None
        event = plan.take(2)
        assert event is not None and event.kind == "kill"
        assert plan.take(2) is None  # fired, gone
        assert plan.remaining == 1
        assert [e.batch_index for e in plan.fired] == [2]

    def test_duplicate_index_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.of(
                FaultEvent(batch_index=1, kind="kill"),
                FaultEvent(batch_index=1, kind="kill"),
            )

    @pytest.mark.parametrize(
        "kw",
        [
            dict(batch_index=-1, kind="kill"),
            dict(batch_index=0, kind="segfault"),
            dict(batch_index=0, kind="hang"),  # needs duration_s
            dict(batch_index=0, kind="slow", duration_s=0.0),
            dict(batch_index=0, kind="drift"),  # needs magnitude
        ],
    )
    def test_bad_events_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            FaultEvent(**kw)

    def test_payload_shapes(self):
        assert FaultEvent(0, "kill").payload == ("kill",)
        assert FaultEvent(0, "hang", duration_s=2.0).payload == (
            "hang",
            2.0,
        )
        assert FaultEvent(
            0, "drift", magnitude=0.5, seed=9
        ).payload == ("drift", 0.5, 9)


class TestCrashRecovery:
    """Serial-mode kill/hang → retry; results stay bit-identical."""

    def test_kill_retried_bit_identical_noise_off(
        self, network, samples
    ):
        plan = FaultPlan.of(FaultEvent(batch_index=1, kind="kill"))
        with _runtime(
            network,
            samples,
            health=HealthPolicy(**FAST),
            fault_plan=plan,
        ) as runtime:
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert plan.remaining == 0
            assert len(runtime.restarts) == 1
            assert runtime.restarts[0].reason == "crash"
            assert runtime.restarts[0].cost_s > 0.0
        np.testing.assert_array_equal(served, reference)

    def test_kill_retried_bit_identical_noise_on(
        self, network, samples
    ):
        """The retried batch reuses its original noise seed, so even the
        seeded-noise stream is unchanged by the crash."""
        plan = FaultPlan.of(FaultEvent(batch_index=1, kind="kill"))
        config = _small_config(device=PT_TIO2_DEVICE)
        with _runtime(
            network,
            samples,
            config=config,
            serve=dict(
                mode="serial", max_batch=10, with_noise=True, seed=7
            ),
            health=HealthPolicy(**FAST),
            fault_plan=plan,
        ) as runtime:
            served = runtime.serve(samples)
            want = np.concatenate(
                [
                    runtime.reference(samples[:10], batch_index=0),
                    runtime.reference(samples[10:], batch_index=1),
                ]
            )
            assert plan.remaining == 0
        np.testing.assert_array_equal(served, want)

    def test_retry_counter_and_monitor_bookkeeping(
        self, network, samples
    ):
        telemetry.enable()
        plan = FaultPlan.of(FaultEvent(batch_index=0, kind="kill"))
        with _runtime(
            network,
            samples,
            health=HealthPolicy(**FAST),
            fault_plan=plan,
        ) as runtime:
            runtime.serve(samples)
            assert runtime.monitor.replicas[0].restarts == 1
        assert (
            telemetry.counter_value(
                "serve.dispatch.retry",
                reason="crash",
                tenant=runtime.tenant,
            )
            == 1
        )
        assert (
            telemetry.counter_value(
                "serve.replica.restarts",
                reason="crash",
                tenant=runtime.tenant,
            )
            == 1
        )

    def test_exhausted_retries_raise_by_default(
        self, network, samples
    ):
        # Every dispatch of batch 0 is doomed: retries re-dispatch the
        # same batch, but take() keys on fresh indices only — so plant
        # kills on the first max_retries+1 fresh dispatches instead and
        # drive a single one-batch pump.
        plan = FaultPlan.of(FaultEvent(batch_index=0, kind="kill"))
        runtime = _runtime(
            network,
            samples,
            health=HealthPolicy(max_retries=0, **FAST),
            fault_plan=plan,
        )
        try:
            with pytest.raises(ExecutionError, match="1 attempt"):
                runtime.serve(samples[:5])
        finally:
            runtime._inflight.clear()
            runtime.batcher._queue.clear()
            runtime.close()

    def test_exhausted_retries_shed_with_recorded_reason(
        self, network, samples
    ):
        telemetry.enable()
        plan = FaultPlan.of(FaultEvent(batch_index=0, kind="kill"))
        with _runtime(
            network,
            samples,
            health=HealthPolicy(
                max_retries=0, on_exhausted="shed", **FAST
            ),
            fault_plan=plan,
        ) as runtime:
            requests = [runtime.submit(x) for x in samples]
            runtime.pump(flush=True)
            dead = [r for r in requests if not r.done]
            live = [r for r in requests if r.done]
            # Exactly the first micro-batch died; its loss is recorded.
            assert len(dead) == 5
            assert all(r.error == "crash" for r in dead)
            assert runtime.shed_failed == 5
            # Zero silent losses: every admitted request completed or
            # was shed with a recorded reason.
            assert len(live) + len(dead) == len(samples)
            reference = runtime.reference(samples)
        assert telemetry.counter_value(
            "serve.shed", reason="failure", tenant=runtime.tenant
        ) == 5
        served = np.stack([r.result for r in live])
        np.testing.assert_array_equal(served, reference[5:])

    def test_hang_is_a_crash_in_serial_mode(self, network, samples):
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="hang", duration_s=30.0)
        )
        with _runtime(
            network,
            samples,
            health=HealthPolicy(**FAST),
            fault_plan=plan,
        ) as runtime:
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert len(runtime.restarts) == 1
        np.testing.assert_array_equal(served, reference)


class TestLatencyOutliers:
    def test_slow_replica_restarted_proactively(
        self, network, samples
    ):
        # Three consecutive slow batches on replica 0 (round-robin over
        # two replicas puts even fresh indices there) cross the default
        # suspect limit and trigger a proactive restart.
        plan = FaultPlan.of(
            FaultEvent(batch_index=2, kind="slow", duration_s=30.0),
            FaultEvent(batch_index=4, kind="slow", duration_s=30.0),
            FaultEvent(batch_index=6, kind="slow", duration_s=30.0),
        )
        many = np.random.default_rng(3).standard_normal((40, 24))
        with _runtime(
            network,
            samples,
            health=HealthPolicy(suspect_limit=3, **FAST),
            fault_plan=plan,
        ) as runtime:
            served = runtime.serve(many)
            reference = runtime.reference(many)
            assert plan.remaining == 0
            assert [e.reason for e in runtime.restarts] == ["outlier"]
            assert runtime.restarts[0].replica == 0
        # Slow faults only inflate the *reported* execution time;
        # results are untouched.
        np.testing.assert_array_equal(served, reference)


class TestDriftRecovery:
    def test_apply_drift_changes_outputs_reprogram_restores(
        self, network, samples
    ):
        """Unit-level drift contract: drift moves the served outputs,
        reprogramming from stored levels restores them exactly in the
        noise-free regime."""
        with _runtime(network, samples) as runtime:
            spec = runtime.spec
        executor, programmed = program_state(spec)
        pristine = run_programmed(spec, executor, programmed, samples)
        apply_drift(programmed, magnitude=0.5, seed=3)
        drifted = run_programmed(spec, executor, programmed, samples)
        assert not np.array_equal(drifted, pristine)
        reprogram_state(spec, programmed)
        restored = run_programmed(spec, executor, programmed, samples)
        np.testing.assert_array_equal(restored, pristine)

    def test_drift_probe_triggers_background_reprogram(
        self, network, samples
    ):
        telemetry.enable()
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="drift", magnitude=0.5, seed=3)
        )
        health = HealthPolicy(
            probe_interval_batches=2, drift_threshold=0.01, **FAST
        )
        with _runtime(
            network, samples, health=health, fault_plan=plan
        ) as runtime:
            assert runtime.spec.probe_reference
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert len(runtime.reprograms) >= 1
            event = runtime.reprograms[0]
            assert event.drift > health.drift_threshold
            assert event.cost_s > 0.0
            # The probe recorded the drift distance it saw.
            hist = telemetry.session().metrics.histogram(
                "serve.replica.drift", tenant=runtime.tenant
            )
            assert hist.count >= 1
            assert hist.maximum > health.drift_threshold
            # Once reprogrammed, later probes read ~zero drift.
            probe = runtime.dispatcher.probe_replica(0)
            assert probe.result(60.0) == pytest.approx(0.0)
        # serve() outputs: batches before the drift (and after the
        # reprogram) match the oracle; the drifted middle batches are
        # the graceful-degradation window.  The first batch computed
        # pre-drift must be exact.
        np.testing.assert_array_equal(served[:5], reference[:5])

    def test_probes_off_without_calibration_or_interval(
        self, network, samples
    ):
        with _runtime(network, samples) as runtime:
            # Default policy: no probe interval -> no reference capture.
            assert not runtime.spec.probe_reference
        with _runtime(
            network,
            samples,
            calibration=None,
            health=HealthPolicy(probe_interval_batches=2),
        ) as runtime:
            # Probing needs a calibration batch to compare against.
            assert not runtime.spec.probe_reference


class TestDegradeToSerial:
    def test_all_retired_serial_monitor_raises(self, network, samples):
        """Serial mode has nothing to degrade to: retiring its only
        replica makes dispatch raise rather than loop."""
        runtime = _runtime(
            network,
            samples,
            health=HealthPolicy(
                max_restarts_per_replica=0, max_retries=0, **FAST
            ),
            fault_plan=FaultPlan.of(
                FaultEvent(batch_index=0, kind="kill"),
            ),
            max_replicas=1,
        )
        try:
            with pytest.raises(ExecutionError):
                runtime.serve(samples[:5])
            assert runtime.monitor.all_unhealthy
            with pytest.raises(ExecutionError, match="no healthy"):
                runtime.submit(samples[0])
                runtime.pump(flush=True)
        finally:
            runtime._inflight.clear()
            runtime.batcher._queue.clear()
            runtime.close()
