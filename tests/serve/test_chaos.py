"""Chaos: injected replica kills, hangs, drift, and recovery.

The fault-injection suite (``-m chaos``): a seeded :class:`FaultPlan`
kills, hangs, and drifts thread replicas, and the runtime must recover
— restart the replica by cooperative cancellation, re-dispatch the
batch bit-identically, reprogram a drifted copy, degrade to serial
when no replica is left, and never lose an admitted request silently.
Everything here is deterministic in the plan and the traffic;
wall-clock only enters through deliberately short deadlines.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro import telemetry
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import ServeConfig, ServingRuntime
from repro.serve import dispatcher as dispatcher_mod
from repro.serve.dispatcher import ThreadDispatcher
from repro.serve.health import FaultEvent, FaultPlan, HealthPolicy

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

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

#: Zero backoff keeps recovery instant; the deadline is generous for
#: everything except the hang tests, which shorten it deliberately.
FAST = dict(backoff_base_s=0.0)


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


def _runtime(network, samples, **kw):
    serve_kw = dict(mode="thread", max_batch=5)
    serve_kw.update(kw.pop("serve", {}))
    defaults = dict(
        config=_small_config(),
        serve_config=ServeConfig(**serve_kw),
        calibration=samples,
        max_replicas=2,
        health=HealthPolicy(**FAST),
    )
    defaults.update(kw)
    return ServingRuntime(network, TOPOLOGY, **defaults)


class TestKillRecovery:
    def test_kill_recovers_bit_identical(self, network, samples):
        """A replica thread dies mid-run: the replica is restarted, the
        batch re-dispatched, and the results are bit-identical."""
        telemetry.enable()
        plan = FaultPlan.of(FaultEvent(batch_index=1, kind="kill"))
        with _runtime(network, samples, fault_plan=plan) as runtime:
            assert runtime.mode == "thread"
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert plan.remaining == 0
            assert len(runtime.restarts) == 1
            event = runtime.restarts[0]
            assert event.reason == "crash"
            assert event.replica == 1  # round-robin: batch 1 -> replica 1
            # A thread restart is cooperative cancellation plus a fresh
            # pool and scratch buffers: measured, but no programming.
            assert 0.0 < event.cost_s < 1.0
            # The restarted replica serves again (back in rotation,
            # not retired).
            assert runtime.monitor.routable() == [0, 1]
        np.testing.assert_array_equal(served, reference)
        # The restart was measured as a span and counted.
        names = [r.name for r in telemetry.session().tracer.spans]
        assert "serve.replica.restart" in names
        assert (
            telemetry.counter_value(
                "serve.replica.restarts",
                reason="crash",
                tenant=runtime.tenant,
            )
            == 1
        )

    def test_epoch_guard_one_restart_two_redispatches(
        self, network, samples
    ):
        """Two failures from one replica incarnation: ``pump`` puts
        batches 1 and 3 on replica 1 before it collects either.  Both
        re-dispatch, but only the first restarts the replica.  The
        restart's ``cancel_futures`` decides by timing whether batch 3
        fails (crash) or is cancelled, so the retries are counted over
        every reason."""
        telemetry.enable()
        plan = FaultPlan.of(
            FaultEvent(batch_index=1, kind="kill"),
            FaultEvent(batch_index=3, kind="kill"),
        )
        with _runtime(network, samples, fault_plan=plan) as runtime:
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert plan.remaining == 0
            assert [e.replica for e in runtime.restarts] == [1]
        np.testing.assert_array_equal(served, reference)
        assert telemetry.counter_total("serve.dispatch.retry") == 2
        assert telemetry.counter_total("serve.replica.restarts") == 1

    def test_pipelined_kill_under_poll(self, network, samples):
        """The open-loop path: poll() with a killed replica mid-stream
        must drain everything without deadlock or silent loss."""
        plan = FaultPlan.of(FaultEvent(batch_index=0, kind="kill"))
        with _runtime(
            network,
            samples,
            fault_plan=plan,
            health=HealthPolicy(batch_timeout_s=60.0, **FAST),
        ) as runtime:
            requests = [runtime.submit(x) for x in samples]
            # poll() never blocks; pace the loop so the replica threads
            # (and the restart) get wall-clock to make progress.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                runtime.poll(flush=True)
                if all(r.done for r in requests):
                    break
                time.sleep(0.01)
            assert all(r.done for r in requests)
            assert len(runtime.restarts) == 1
            served = np.stack([r.result for r in requests])
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


class TestHangTimeout:
    def test_hung_thread_cancelled_cooperatively(
        self, network, samples
    ):
        """A replica thread sleeping 60s trips the 1s deadline; its
        cancellation event wakes it immediately on restart — the run
        (and teardown) must finish far inside the hang duration."""
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="hang", duration_s=60.0)
        )
        health = HealthPolicy(batch_timeout_s=1.0, **FAST)
        start = time.monotonic()
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert len(runtime.restarts) == 1
            assert runtime.restarts[0].reason == "timeout"
        assert time.monotonic() - start < 30.0
        np.testing.assert_array_equal(served, reference)


class TestDriftRecovery:
    def test_drifted_copy_reprogrammed_in_background(
        self, network, samples
    ):
        """Drift injected into the shared copy: the periodic probe sees
        it, background reprogramming restores it, a fresh probe on
        every replica reads zero, and later replies are exact.  One
        probe reads the copy for both replica threads, so the drift
        event costs exactly one reprogram."""
        plan = FaultPlan.of(
            FaultEvent(
                batch_index=0, kind="drift", magnitude=0.5, seed=3
            )
        )
        health = HealthPolicy(
            probe_interval_batches=2, drift_threshold=0.01, **FAST
        )
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            assert runtime.spec.probe_reference
            runtime.serve(samples)
            assert len(runtime.reprograms) == 1
            event = runtime.reprograms[0]
            assert event.drift > health.drift_threshold
            assert event.cost_s > 0.0
            for replica in (0, 1):
                probe = runtime.dispatcher.probe_replica(replica)
                assert probe.result(60.0) == pytest.approx(
                    0.0, abs=1e-12
                )
            tail = runtime.serve(samples)
            reference = runtime.reference(samples)
            assert len(runtime.reprograms) == 1
        np.testing.assert_array_equal(tail, reference)


class TestDegradeToSerial:
    def test_degrade_to_serial_zero_request_loss(
        self, network, samples
    ):
        """Every replica thread retired (restart budget zero): the
        runtime degrades to serial over the copy it already holds and
        still answers every admitted request bit-identically — nothing
        shed, nothing lost, nothing programmed again."""
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="kill"),
            FaultEvent(batch_index=1, kind="kill"),
        )
        health = HealthPolicy(max_restarts_per_replica=0, **FAST)
        telemetry.enable(fresh=True)
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            requests = [runtime.submit(x) for x in samples]
            runtime.pump(flush=True)
            assert runtime.mode == "serial"
            assert runtime.shed_failed == 0
            assert all(r.done and r.error is None for r in requests)
            assert telemetry.counter_total("serve.programs") == 1
            served = np.stack([r.result for r in requests])
            reference = runtime.reference(samples)
        assert (
            telemetry.counter_value(
                "serve.dispatch.fallback",
                reason="unhealthy",
                tenant=runtime.tenant,
            )
            == 1
        )
        np.testing.assert_array_equal(served, reference)

    @pytest.mark.parametrize("probe_every", [None, 2])
    def test_degrade_reroutes_batches_stranded_on_the_closed_pools(
        self, network, samples, probe_every
    ):
        """Batches (and drift probes) still queued on the replica
        threads when the runtime degrades to serial are cancelled with
        their pools.  The batches are re-dispatched to the serial
        replicas and the probes dropped, neither charged to them:
        charged, they retired them (restart budget zero) and failed a
        batch."""
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="hang", duration_s=30.0),
            FaultEvent(batch_index=1, kind="kill"),
        )
        health = HealthPolicy(
            max_restarts_per_replica=0,
            batch_timeout_s=0.5,
            probe_interval_batches=probe_every,
            **FAST,
        )
        with _runtime(
            network,
            samples,
            fault_plan=plan,
            health=health,
            serve=dict(max_batch=4),
        ) as runtime:
            requests = [runtime.submit(x) for x in samples]
            runtime.pump(flush=True)
            assert runtime.mode == "serial"
            # The degrade keeps the grant: both replicas serve inline.
            assert runtime.monitor.routable() == [0, 1]
            assert runtime.shed_failed == 0
            assert all(r.done and r.error is None for r in requests)
            served = np.stack([r.result for r in requests])
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


    def test_degraded_deployment_resizes(self, network, samples):
        """After the degrade, the runtime, the dispatcher and the health
        monitor agree on the grant's replica count, so the autoscaler
        can still shrink and grow the deployment."""
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="kill"),
            FaultEvent(batch_index=1, kind="kill"),
        )
        health = HealthPolicy(max_restarts_per_replica=0, **FAST)
        with _runtime(
            network, samples, fault_plan=plan, health=health
        ) as runtime:
            served = runtime.serve(samples)
            assert runtime.mode == "serial"
            d = runtime.dispatcher
            assert runtime.replicas == d.replicas == len(runtime.monitor)
            assert runtime.replicas == 2
            runtime.scale_to(1)
            assert runtime.replicas == d.replicas == len(runtime.monitor)
            assert runtime.replicas == 1
            narrow = runtime.serve(samples)
            runtime.scale_to(3)
            assert runtime.replicas == d.replicas == len(runtime.monitor)
            assert runtime.replicas == 3
            assert runtime.monitor.routable() == [0, 1, 2]
            wide = runtime.serve(samples)
            reference = runtime.reference(samples)
        for replies in (served, narrow, wide):
            np.testing.assert_array_equal(replies, reference)


class TestGrowFailureRecovery:
    def test_grow_after_failed_grow(self, network, samples, monkeypatch):
        """A failed scale-up (no replica thread can start) must leave
        the dispatcher and the bank grant exactly as they were, and a
        later grow must succeed cleanly."""
        original = dispatcher_mod.ThreadPoolExecutor

        def explode(*a, **kw):
            raise RuntimeError("can't start new thread")

        with _runtime(network, samples, max_replicas=1) as runtime:
            d = runtime.dispatcher
            assert isinstance(d, ThreadDispatcher)
            assert runtime.replicas == d.replicas == 1
            free_before = len(runtime.scheduler.free_banks)
            monkeypatch.setattr(
                dispatcher_mod, "ThreadPoolExecutor", explode
            )
            with pytest.raises(RuntimeError):
                runtime.scale_to(2)
            # Nothing half-granted: replica count, pools, cancellation
            # events and the free-bank pool are all untouched.
            assert runtime.replicas == d.replicas == 1
            assert len(d._pools) == len(d._cancels) == 1
            assert len(runtime.scheduler.free_banks) == free_before
            # Retry with the environment healthy again.
            monkeypatch.setattr(
                dispatcher_mod, "ThreadPoolExecutor", original
            )
            cost = runtime.scale_to(2)
            assert cost > 0.0
            assert runtime.replicas == d.replicas == 2
            assert len(d._pools) == len(d._cancels) == 2
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)

    def test_partial_grow_keeps_one_replica_count(
        self, network, samples, monkeypatch
    ):
        """A grow that starts one of its two new replica threads and
        then fails retires the one it started: the runtime, the
        dispatcher and the health monitor keep one replica count, and a
        later grow succeeds cleanly."""
        original = ThreadDispatcher._new_pool
        calls = []

        def second_fails(self, replica):
            calls.append(replica)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            return original(self, replica)

        with _runtime(network, samples, max_replicas=1) as runtime:
            d = runtime.dispatcher
            monkeypatch.setattr(ThreadDispatcher, "_new_pool", second_fails)
            with pytest.raises(RuntimeError):
                runtime.scale_to(3)
            assert len(calls) == 2
            counts = (runtime.replicas, d.replicas, len(runtime.monitor))
            assert counts == (1, 1, 1)
            assert len(d._pools) == len(d._cancels) == 1
            monkeypatch.setattr(ThreadDispatcher, "_new_pool", original)
            runtime.scale_to(2)
            counts = (runtime.replicas, d.replicas, len(runtime.monitor))
            assert counts == (2, 2, 2)
            assert runtime.monitor.routable() == [0, 1]
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


class TestCloseSafety:
    def test_dispatcher_double_close(self, network, samples):
        with _runtime(network, samples) as runtime:
            runtime.serve(samples[:5])
        d = runtime.dispatcher
        assert isinstance(d, ThreadDispatcher)
        d.close()  # runtime.close() already closed it; idempotent
        assert d._pools == [] and d._state is None

    def test_close_releases_banks_when_dispatcher_close_raises(
        self, network, samples, monkeypatch
    ):
        """A dispatcher whose teardown raises: close() still hands the
        bank grant back, and closing again is a no-op."""
        runtime = _runtime(network, samples)
        scheduler = runtime.scheduler
        free_granted = len(scheduler.free_banks)
        runtime.serve(samples[:5])

        def broken_close():
            raise RuntimeError("teardown failed")

        monkeypatch.setattr(runtime.dispatcher, "close", broken_close)
        with pytest.raises(RuntimeError, match="teardown failed"):
            runtime.close()
        assert runtime.name not in scheduler.resident
        assert len(scheduler.free_banks) > free_granted
        runtime.close()
        monkeypatch.undo()
        runtime.dispatcher.close()
