"""Thread-parallel dispatch over one shared programmed copy.

The contract under test: ``ThreadDispatcher`` runs N replica threads
against a *single* ``program_state`` per tenant and stays bit-identical
to the serial oracle — across racing threads, interleaved batch widths,
and both noise regimes (noise-on routes each task's draws through a
private stream seeded exactly like the reseed path).  Scale-up
allocates only scratch workspaces, the lease pool returns to full
after exceptions, and resident memory reports ~one weight copy however
many threads serve it.  Remapped tiles serialise every batch under the
write lock and still answer exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

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
from repro.serve.dispatcher import (
    ThreadDispatcher,
    batch_noise_seed,
    program_state,
    run_programmed,
    spec_resident_bytes,
)
from repro.serve.health import FaultEvent, FaultPlan
from repro.telemetry.request import serving_report

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


def _runtime(network, samples, **kw):
    serve_kw = dict(mode="thread", max_batch=5)
    serve_kw.update(kw.pop("serve", {}))
    defaults = dict(
        config=_small_config(),
        serve_config=ServeConfig(**serve_kw),
        calibration=samples,
        max_replicas=2,
    )
    defaults.update(kw)
    return ServingRuntime(network, TOPOLOGY, **defaults)


class TestThreadBitIdentity:
    def test_runtime_matches_reference_both_regimes(
        self, network, samples
    ):
        for with_noise, device in (
            (False, NOISE_FREE),
            (True, PT_TIO2_DEVICE),
        ):
            with _runtime(
                network,
                samples,
                config=_small_config(device),
                serve=dict(mode="thread", with_noise=with_noise),
            ) as runtime:
                assert runtime.mode == "thread"
                assert runtime.dispatcher._parallel
                served = runtime.serve(samples)
                for i, lo in enumerate(range(0, len(samples), 5)):
                    reference = runtime.reference(
                        samples[lo : lo + 5], batch_index=i
                    )
                    np.testing.assert_array_equal(
                        served[lo : lo + 5], reference
                    )

    def test_variation_noise_off_runs_parallel(
        self, network, samples, blas_spy
    ):
        """Verified writes give the deployment an RNG, so its arrays
        carry programming variation; with noise off they fuse through
        the differential stack and the replicas never serialise.  Their
        counts are continuous, so concurrent forwards never narrow the
        BLAS thread budget: the first two meet inside it."""
        telemetry.enable(fresh=True)
        with _runtime(
            network,
            samples,
            config=_small_config(PT_TIO2_DEVICE),
            resilience=ResiliencePolicy(verify_writes=True),
        ) as runtime:
            assert runtime.spec.use_rng and not runtime.spec.with_noise
            disp = runtime.dispatcher
            assert disp._parallel
            assert all(p.kernel.varied for p in disp._state[1])
            disp.grow(2)
            spy = blas_spy(meet=2)
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        assert (
            telemetry.counter_total("serve.dispatch.thread_serialized") == 0
        )
        assert spy.exact and not any(spy.exact)
        assert spy.sets == []
        assert telemetry.counter_total("perf.blas.narrowed") == 0
        np.testing.assert_array_equal(served, reference)

    def test_eight_thread_stress_interleaved_widths(
        self, network, samples
    ):
        """8 racing threads, batch widths interleaved 1..5: every
        result bit-identical to a fresh serial state, and the shared
        plan's workspace leases all return."""
        with _runtime(network, samples) as runtime:
            disp = runtime.dispatcher
            assert isinstance(disp, ThreadDispatcher)
            disp.grow(6)
            assert disp.replicas == 8
            spec = runtime.spec
            batches = [
                np.ascontiguousarray(samples[: 1 + (i % 5)])
                for i in range(64)
            ]
            futures = [disp.dispatch(b) for b in batches]
            results = [f.result(timeout=300.0).value for f in futures]
            executor, programmed = program_state(spec)
            for batch, result in zip(batches, results):
                expected = run_programmed(
                    spec, executor, programmed, batch
                )
                np.testing.assert_array_equal(result, expected)
            plan = disp._state[1][0].compiled_plan
            if plan is not None:
                assert plan.leases_outstanding == 0
                assert plan.workspaces_allocated >= 1

    def test_noise_on_reproducible_under_racing_threads(
        self, network, samples, blas_spy
    ):
        """Each per-batch-index noise seed reproduces bit-exactly no
        matter which of 8 racing threads serves it — dispatched twice
        concurrently, both runs equal the serial reseed oracle.  Noisy
        forwards never narrow the BLAS thread budget, even when two of
        them are in flight together."""
        with _runtime(
            network,
            samples,
            config=_small_config(PT_TIO2_DEVICE),
            serve=dict(mode="thread", with_noise=True, seed=7),
        ) as runtime:
            disp = runtime.dispatcher
            disp.grow(6)
            spy = blas_spy(meet=2)
            spec = runtime.spec
            indices = list(range(12))
            seeds = [batch_noise_seed(7, i) for i in indices]
            batch = np.ascontiguousarray(samples[:4])
            futures = [
                disp.dispatch(batch, seed)
                for seed in seeds
                for _ in range(2)
            ]
            results = [f.result(timeout=300.0).value for f in futures]
            executor, programmed = program_state(spec)
            for pos, seed in enumerate(seeds):
                expected = run_programmed(
                    spec, executor, programmed, batch, seed
                )
                np.testing.assert_array_equal(
                    results[2 * pos], expected
                )
                np.testing.assert_array_equal(
                    results[2 * pos + 1], expected
                )
        assert spy.exact and not any(spy.exact)
        assert spy.sets == []

    def test_one_program_pass_however_many_threads(
        self, network, samples
    ):
        telemetry.enable(fresh=True)
        with _runtime(network, samples) as runtime:
            runtime.dispatcher.grow(6)
            runtime.serve(samples)
            assert telemetry.counter_total("serve.programs") == 1
            assert (
                telemetry.counter_total("serve.dispatch.batches") == 4
            )


class TestRemappedTiles:
    def test_remapped_tiles_serialise_and_match_reference(
        self, network, samples
    ):
        """Faulty arrays force tile remaps during programming.  Remapped
        tiles take the per-engine walk, which is not re-entrant, so two
        replica threads serialise every batch under the write lock
        (counted once, at deploy) and still answer exactly."""
        policy = ResiliencePolicy(
            verify_writes=True,
            spare_columns=0,
            spare_pairs_per_bank=3,
            column_error_limit=100.0,
            mask_error_limit=100.0,
        )
        config = PrimeConfig(
            crossbar=CrossbarParams(
                rows=32,
                cols=32,
                sense_amps=8,
                device=NOISE_FREE,
                fault_rate_hrs=0.05,
                fault_rate_lrs=0.05,
            ),
            organization=SMALL_ORG,
            resilience=policy,
        )
        telemetry.enable(fresh=True)
        with _runtime(
            network, samples, config=config, serve=dict(seed=3)
        ) as runtime:
            assert runtime.replicas == 2
            executor, _ = program_state(runtime.spec)
            summary = executor.last_degradation
            assert summary is not None and summary.remapped_tiles >= 1
            assert not runtime.dispatcher._parallel
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        assert (
            telemetry.counter_total("serve.dispatch.thread_serialized") == 1
        )
        np.testing.assert_array_equal(served, reference)


class TestWorkspaceLeases:
    def test_leases_return_after_exceptions(self, network, samples):
        """A batch that explodes mid-plan must hand its workspace
        back — the pool's lease accounting returns to full."""
        with _runtime(network, samples) as runtime:
            runtime.serve(samples)  # compiles the shared plan
            plan = runtime.dispatcher._state[1][0].compiled_plan
            if plan is None:
                pytest.skip("plan compilation disabled here")
            allocated = plan.workspaces_allocated
            assert plan.leases_outstanding == 0
            for _ in range(3):
                with pytest.raises(Exception):
                    plan.execute(np.ones((2, 3)))  # wrong input width
            assert plan.leases_outstanding == 0
            # Failed leases were released for reuse, not abandoned.
            assert plan.workspaces_allocated <= allocated + 1
            served = runtime.serve(samples)
            reference = runtime.reference(samples)
        np.testing.assert_array_equal(served, reference)

    def test_grow_prewarns_workspaces(self, network, samples):
        """Scale-up cost is scratch allocation: after grow, the plan
        holds at least one free workspace per replica thread."""
        with _runtime(network, samples) as runtime:
            runtime.serve(samples)
            plan = runtime.dispatcher._state[1][0].compiled_plan
            if plan is None:
                pytest.skip("plan compilation disabled here")
            cost = runtime.scale_to(4)
            assert cost < 1.0  # no fork, no reprogramming
            assert plan.workspaces_allocated >= 4


class TestResidentBytes:
    def test_thread_mode_holds_one_copy(self, network, samples):
        with _runtime(network, samples) as runtime:
            one_copy = spec_resident_bytes(runtime.spec)
            assert runtime.dispatcher.resident_bytes() == one_copy
            runtime.scale_to(4)
            # Four replica threads, still one programmed copy.
            assert runtime.dispatcher.resident_bytes() == one_copy

    def test_gauge_reaches_serving_report(self, network, samples):
        session = telemetry.enable(fresh=True)
        with _runtime(network, samples) as runtime:
            runtime.scale_to(4)
            runtime.serve(samples)
            expected = spec_resident_bytes(runtime.spec)
            tenant = runtime.tenant
        report = serving_report(session)
        row = next(t for t in report.tenants if t.tenant == tenant)
        assert row.resident_bytes == expected
        assert (
            report.to_json()["tenants"][0]["resident_bytes"] == expected
        )


def _task_threads(dispatcher) -> list[int]:
    """Record the ident of the thread each of ``dispatcher``'s batches
    runs on, in the order they run."""
    idents: list[int] = []
    task = dispatcher._task

    def spy(*args):
        idents.append(threading.get_ident())
        return task(*args)

    dispatcher._task = spy
    return idents


class TestInlineTinyBatches:
    def test_one_and_two_sample_batches_run_on_the_calling_thread(
        self, network, samples
    ):
        x = samples[:6]
        for with_noise, device in (
            (False, NOISE_FREE),
            (True, PT_TIO2_DEVICE),
        ):
            for width in (1, 2):
                with _runtime(
                    network,
                    samples,
                    config=_small_config(device),
                    serve=dict(
                        max_batch=width, with_noise=with_noise, seed=5
                    ),
                ) as runtime:
                    idents = _task_threads(runtime.dispatcher)
                    served = runtime.serve(x)
                    assert idents == [threading.get_ident()] * (
                        len(x) // width
                    )
                    for i, lo in enumerate(range(0, len(x), width)):
                        rows = slice(lo, lo + width)
                        if with_noise:
                            expected = runtime.reference(x[rows], i)
                        else:
                            expected = runtime.reference(x[rows])
                        np.testing.assert_array_equal(
                            served[rows], expected
                        )

    def test_other_batches_keep_the_replica_threads(
        self, network, samples, monkeypatch
    ):
        main = threading.get_ident()
        x = samples[:3]

        def check(expect_inline, **kw):
            with _runtime(network, samples, **kw) as runtime:
                idents = _task_threads(runtime.dispatcher)
                served = runtime.serve(x)
                reference = runtime.reference(x)
            assert [i == main for i in idents] == expect_inline
            np.testing.assert_array_equal(served, reference)

        # A 3-sample batch.
        check([False], serve=dict(max_batch=3))
        # A batch carrying a fault event; the next batches run inline.
        plan = FaultPlan.of(
            FaultEvent(batch_index=0, kind="slow", duration_s=1e-3)
        )
        check([False, True, True], serve=dict(max_batch=1), fault_plan=plan)
        # A paced deployment: pacing occupies a replica thread.
        check([False] * 3, serve=dict(max_batch=1, pace_batch_s=1e-3))
        # Uncalibrated: the first batch freezes calibration under the
        # write lock on a replica thread, so only its reply equals a
        # fresh reference; once it has returned, tiny batches run
        # inline.  It is served on its own because ``serve`` dispatches
        # every batch before it collects any.
        with _runtime(
            network, samples, serve=dict(max_batch=1), calibration=None
        ) as runtime:
            idents = _task_threads(runtime.dispatcher)
            first = runtime.serve(x[:1])
            assert [i == main for i in idents] == [False]
            runtime.serve(x[1:])
            assert [i == main for i in idents[1:]] == [True, True]
            np.testing.assert_array_equal(first, runtime.reference(x[:1]))
        # A state that cannot run concurrently (the per-engine walk).
        monkeypatch.setenv("PRIME_FUSED", "0")
        check([False] * 3, serve=dict(max_batch=1))


def _cell_arrays(programmed):
    return [
        array.cells
        for layer in programmed
        for row in layer.tiles
        for engine in row
        for array in (engine.pair.positive, engine.pair.negative)
    ]


class TestDeployFootprint:
    def test_ideal_deployment_never_derives_conductances(
        self, network, samples, monkeypatch
    ):
        """Noise-free serving of an ideal network runs on the integer
        weights: deployed, warmed and served, no array builds its
        float conductance matrix.  The per-engine walk over the same
        state (``PRIME_FUSED=0``) still answers identically."""
        monkeypatch.delenv("PRIME_FUSED", raising=False)
        with _runtime(
            network, samples, config=_small_config(PT_TIO2_DEVICE)
        ) as runtime:
            assert not runtime.spec.use_rng
            executor, programmed = runtime.dispatcher._state[:2]
            runtime.serve(samples)
            served = runtime.serve(samples)
            assert programmed[0].compiled_plan is not None
            assert all(
                c._conductance is None for c in _cell_arrays(programmed)
            )
            np.testing.assert_array_equal(
                served, runtime.reference(samples)
            )
            monkeypatch.setenv("PRIME_FUSED", "0")
            walked = run_programmed(
                runtime.spec, executor, programmed, samples
            )
        np.testing.assert_array_equal(walked, served)

    def test_closed_deployment_frees_engines_without_gc(
        self, network, samples
    ):
        """The compiled plan memoised on a programmed layer must not
        keep that layer alive: a served (plan-compiled) deployment
        frees its cell arrays by reference counting alone."""

        def serve_and_close():
            runtime = _runtime(network, samples)
            runtime.serve(samples)
            programmed = runtime.dispatcher._state[1]
            assert programmed[0].compiled_plan is not None
            ref = weakref.ref(_cell_arrays(programmed)[0])
            runtime.close()
            return ref

        gc.collect()
        gc.disable()
        try:
            ref = serve_and_close()
            assert ref() is None
        finally:
            gc.enable()
