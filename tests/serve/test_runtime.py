"""ServingRuntime: deployment, bit-identity, lifecycle, dispatch modes."""

from __future__ import annotations

import dataclasses
from concurrent.futures import Future

import numpy as np
import pytest

from repro import telemetry
from repro.core.executor import PrimeExecutor
from repro.core.scheduler import BankScheduler
from repro.errors import ConfigurationError, ExecutionError
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import (
    MAX_BATCH_CAP,
    ServeConfig,
    ServingRuntime,
    ThreadDispatcher,
    make_dispatcher,
    program_state,
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


def _small_config(
    policy: ResiliencePolicy | None = None,
    device=NOISE_FREE,
    **xbar,
) -> PrimeConfig:
    kw = dict(rows=32, cols=32, sense_amps=8, device=device)
    kw.update(xbar)
    return PrimeConfig(
        crossbar=CrossbarParams(**kw),
        organization=SMALL_ORG,
        resilience=policy or ResiliencePolicy(),
    )


@pytest.fixture(scope="module")
def network():
    return TOPOLOGY.build(rng=np.random.default_rng(2))


@pytest.fixture(scope="module")
def samples():
    return np.random.default_rng(11).standard_normal((20, 24))


def _runtime(network, samples, **kw):
    serve_kw = dict(mode="serial")
    serve_kw.update(kw.pop("serve", {}))
    defaults = dict(
        config=_small_config(),
        serve_config=ServeConfig(**serve_kw),
        calibration=samples,
        max_replicas=2,
    )
    defaults.update(kw)
    return ServingRuntime(network, TOPOLOGY, **defaults)


class TestDeployment:
    def test_max_batch_derived_from_chunk_model(self, network, samples):
        with _runtime(network, samples) as runtime:
            chunk = runtime.scheduler.executor.max_chunk_samples(
                runtime.plan
            )
            assert runtime.max_batch == max(1, min(MAX_BATCH_CAP, chunk))
            assert runtime.replicas == 2

    def test_explicit_max_batch_wins(self, network, samples):
        with _runtime(
            network, samples, serve=dict(max_batch=3)
        ) as runtime:
            assert runtime.max_batch == 3

    def test_grant_is_visible_to_scheduler(self, network, samples):
        scheduler = BankScheduler(_small_config())
        free_before = len(scheduler.free_banks)
        with _runtime(
            network, samples, scheduler=scheduler
        ) as runtime:
            assert runtime.name in scheduler.resident
            assert len(scheduler.free_banks) < free_before
            assert runtime.analytical_throughput() > 0
        assert len(scheduler.free_banks) == free_before
        assert runtime.name not in scheduler.resident


class TestBitIdentity:
    """The acceptance-criterion equalities, all exact (==, not allclose)."""

    def test_noise_off_matches_direct_run_functional(
        self, network, samples
    ):
        with _runtime(network, samples) as runtime:
            served = runtime.serve(samples)
            # A completely independent executor, same plan, one direct
            # run_functional call over the full batch (its calibration
            # prefix is the same first-64-samples window the runtime
            # froze from ``calibration=samples``).
            direct = PrimeExecutor(_small_config()).run_functional(
                network, runtime.plan, samples
            )
        np.testing.assert_array_equal(served, direct)

    def test_noise_off_invariant_under_batch_composition(
        self, network, samples
    ):
        outputs = {}
        for max_batch in (4, 7):
            with _runtime(
                network, samples, serve=dict(max_batch=max_batch)
            ) as runtime:
                outputs[max_batch] = runtime.serve(samples)
                reference = runtime.reference(samples)
        np.testing.assert_array_equal(outputs[4], outputs[7])
        np.testing.assert_array_equal(outputs[4], reference)

    def test_noisy_serving_is_seeded_and_batch_indexed(
        self, network, samples
    ):
        config = _small_config(device=PT_TIO2_DEVICE)
        with _runtime(
            network,
            samples,
            config=config,
            serve=dict(max_batch=10, with_noise=True, seed=7),
        ) as runtime:
            served = runtime.serve(samples)  # two full micro-batches
            want = np.concatenate(
                [
                    runtime.reference(samples[:10], batch_index=0),
                    runtime.reference(samples[10:], batch_index=1),
                ]
            )
            # The per-batch noise stream really is batch-indexed.
            other = runtime.reference(samples[:10], batch_index=1)
        np.testing.assert_array_equal(served, want)
        assert not np.array_equal(served[:10], other)

    def test_serving_after_tile_remap_matches_reference(
        self, network, samples
    ):
        """The sparing recipe from tests/resilience: faulty arrays force
        tile remaps during programming; serving must still equal the
        oracle because both program from the same WorkerSpec."""
        policy = ResiliencePolicy(
            verify_writes=True,
            spare_columns=0,
            spare_pairs_per_bank=3,
            column_error_limit=100.0,
            mask_error_limit=100.0,
        )
        config = _small_config(
            policy, fault_rate_hrs=0.05, fault_rate_lrs=0.05
        )
        with _runtime(
            network, samples, config=config, serve=dict(seed=3)
        ) as runtime:
            assert runtime.spec.use_rng
            executor, _ = program_state(runtime.spec)
            summary = executor.last_degradation
            assert summary is not None
            assert summary.remapped_tiles >= 1
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)


class TestLifecycle:
    def test_submit_after_close_raises(self, network, samples):
        runtime = _runtime(network, samples)
        runtime.serve(samples[:4])
        runtime.close()
        with pytest.raises(ExecutionError):
            runtime.submit(samples[0])
        runtime.close()  # idempotent

    def test_close_refuses_queued_work(self, network, samples):
        runtime = _runtime(network, samples)
        runtime.submit(samples[0])
        with pytest.raises(ExecutionError):
            runtime.close()
        runtime.pump(flush=True)
        runtime.close()

    def test_context_manager_drops_queue_on_error(
        self, network, samples
    ):
        with pytest.raises(RuntimeError, match="boom"):
            with _runtime(network, samples) as runtime:
                runtime.submit(samples[0])
                raise RuntimeError("boom")
        assert runtime._closed

    def test_replica_round_robin_counters(self, network, samples):
        telemetry.enable()
        with _runtime(
            network, samples, serve=dict(max_batch=5)
        ) as runtime:
            assert runtime.replicas == 2
            runtime.serve(samples)  # 4 micro-batches of 5
        assert telemetry.counter_value(
            "serve.replica_batches", replica=0, tenant=runtime.tenant
        ) == 2
        assert telemetry.counter_value(
            "serve.replica_batches", replica=1, tenant=runtime.tenant
        ) == 2
        assert telemetry.counter_total("serve.requests") == 20
        assert (
            telemetry.session()
            .metrics.histogram("serve.latency_ms", tenant=runtime.tenant)
            .count
            == 20
        )


class TestDispatchModes:
    @pytest.mark.parametrize("mode", ["threads", "process"])
    def test_bad_mode_rejected(self, network, samples, mode):
        with pytest.raises(ConfigurationError, match=r"auto\|thread\|serial"):
            _runtime(network, samples, serve=dict(mode=mode))

    def test_auto_mode_parity_with_serial(self, network, samples):
        with _runtime(network, samples) as serial_runtime:
            serial_out = serial_runtime.serve(samples)
        with _runtime(
            network, samples, serve=dict(mode="auto")
        ) as auto_runtime:
            assert auto_runtime.replicas == 2
            assert auto_runtime.mode == "thread"
            assert isinstance(auto_runtime.dispatcher, ThreadDispatcher)
            auto_out = auto_runtime.serve(samples)
        np.testing.assert_array_equal(auto_out, serial_out)

    def test_make_dispatcher_serial_for_single_replica(
        self, network, samples
    ):
        with _runtime(network, samples, max_replicas=1) as runtime:
            assert runtime.replicas == 1
        dispatcher = make_dispatcher(
            runtime.spec, replicas=1, mode="auto"
        )
        assert dispatcher.mode == "serial"
        assert dispatcher.inflight_limit is None
        dispatcher.close()


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class _GatedDispatcher:
    """Holds each dispatched batch's future open until :meth:`release`,
    so a test decides which replicas still have a batch executing."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.gates: list[tuple[Future, Future]] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def dispatch(self, *args, **kw) -> Future:
        gate: Future = Future()
        self.gates.append((gate, self._inner.dispatch(*args, **kw)))
        return gate

    def release(self, index: int) -> None:
        gate, done = self.gates[index]
        gate.set_result(done.result())


class TestWorkConservingRelease:
    MAX_WAIT_S = 1e-3

    def _runtime(self, network, samples, clock):
        return _runtime(
            network,
            samples,
            clock=clock,
            serve=dict(max_batch=8, max_wait_s=self.MAX_WAIT_S),
        )

    def test_poll_ships_to_an_idle_replica_at_once(
        self, network, samples
    ):
        clock = _FakeClock()
        with self._runtime(network, samples, clock) as runtime:
            gated = _GatedDispatcher(runtime.dispatcher)
            runtime.dispatcher = gated
            first = runtime.submit(samples[0])
            runtime.poll()
            second = runtime.submit(samples[1])
            runtime.poll()
            # The clock never moved: each lone request shipped the
            # moment it arrived, one to each idle replica.
            assert runtime.batches_dispatched == 2
            assert first.t_batched == first.t_enqueue
            assert second.t_batched == second.t_enqueue
            assert [e.replica for e in runtime._inflight] == [0, 1]
            # Every replica holds an unfinished batch: a lone request
            # waits the full max_wait_s for company.
            third = runtime.submit(samples[2])
            runtime.poll()
            clock.advance(self.MAX_WAIT_S / 2)
            runtime.poll()
            assert runtime.batches_dispatched == 2
            assert third.t_batched is None
            clock.advance(self.MAX_WAIT_S / 2)
            runtime.poll()
            assert runtime.batches_dispatched == 3
            assert third.t_batched - third.t_enqueue == pytest.approx(
                self.MAX_WAIT_S
            )
            assert runtime._inflight[-1].replica == 0  # round-robin
            # Replica 0 finishes both its batches; replica 1 is still
            # busy.  The next lone request ships at once, to replica 0,
            # where the plain round-robin would queue it on replica 1.
            gated.release(0)
            gated.release(2)
            fourth = runtime.submit(samples[3])
            runtime.poll()
            assert fourth.t_batched == fourth.t_enqueue
            assert runtime._inflight[-1].replica == 0
            gated.release(1)
            gated.release(3)
            runtime.poll()
            requests = [first, second, third, fourth]
            assert all(r.done for r in requests)
            served = np.stack([r.result for r in requests])
            reference = runtime.reference(samples[:4])
        np.testing.assert_array_equal(served, reference)

    def test_pump_keeps_the_age_rule(self, network, samples):
        """The synchronous pump still holds a lone request for
        max_wait_s, however idle the replicas are."""
        clock = _FakeClock()
        with self._runtime(network, samples, clock) as runtime:
            request = runtime.submit(samples[0])
            assert runtime.pump() == 0
            assert request.t_batched is None
            clock.advance(self.MAX_WAIT_S)
            assert runtime.pump() == 1
            assert request.done
