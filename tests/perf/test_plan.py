"""Tests for the plan compiler (``repro.perf.plan``).

The contract under test: with noise off, ``run_functional`` produces
*bit-identical* outputs whether a layer chain executes through the
compiled plan, the fused kernels with compilation disabled
(``PRIME_PLAN_COMPILE=0``), or the per-engine tile walk
(``PRIME_FUSED=0``); both paths charge the same hardware counters; the
noisy path reproduces under a fixed seed; chunked streaming never
changes the output; and the plan cache invalidates itself when the
programmed state it was compiled from changes.
"""

import warnings

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload
from repro.nn.layers import Conv2D, Dense
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf import plan as plan_mod
from repro.perf.plan import (
    CALIBRATION_SAMPLES,
    CompiledPlan,
    PlanFallbackWarning,
    plan_compile_enabled,
)
from repro.precision.dynamic_fixed_point import DynamicFixedPoint
from repro.serve import ServeConfig, ServingRuntime


@pytest.fixture
def compiler():
    return PrimeCompiler(DEFAULT_PRIME_CONFIG)


@pytest.fixture
def executor():
    return PrimeExecutor(DEFAULT_PRIME_CONFIG)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PRIME_PLAN_COMPILE", raising=False)
    monkeypatch.delenv("PRIME_FUSED", raising=False)
    monkeypatch.delenv("PRIME_FUNC_CHUNK_BYTES", raising=False)


def _run_modes(executor, compiler, monkeypatch, topology, net, x):
    """run_functional under all three execution paths, same inputs.

    The first pass over a fresh programmed list compiles the plan and
    freezes calibration; each later mode runs against that calibrated
    list, and the compiled mode asserts the plan really engaged.
    """
    plan = compiler.compile(topology)
    programmed = executor.program_network(net, plan)
    warmup = executor.run_functional(net, plan, x, programmed=programmed)
    compiled = executor.run_functional(
        net, plan, x, programmed=programmed
    )
    assert programmed[0].compiled_plan is not None
    monkeypatch.setenv("PRIME_PLAN_COMPILE", "0")
    fused = executor.run_functional(net, plan, x, programmed=programmed)
    monkeypatch.setenv("PRIME_FUSED", "0")
    walked = executor.run_functional(net, plan, x, programmed=programmed)
    # The calibrating first pass saw the same inputs.
    np.testing.assert_array_equal(warmup, compiled)
    return compiled, fused, walked


class TestPlanKnob:
    def test_default_enabled(self):
        assert plan_compile_enabled()

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("PRIME_PLAN_COMPILE", "0")
        assert not plan_compile_enabled()

    def test_invalid_value_warns_and_keeps_default(self, monkeypatch):
        monkeypatch.setenv("PRIME_PLAN_COMPILE", "banana")
        session = telemetry.enable(fresh=True)
        try:
            assert plan_compile_enabled()
            assert (
                session.metrics.counter_value(
                    "perf.env.invalid", knob="PRIME_PLAN_COMPILE"
                )
                == 1
            )
        finally:
            telemetry.disable()

    def test_fused_off_disables_plan_too(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """PRIME_FUSED=0 must force the per-engine walk — the plan is
        the fused tier's successor and stands down with it."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        monkeypatch.setenv("PRIME_FUSED", "0")
        for _ in range(2):  # second run would engage the plan
            executor.run_functional(
                net, plan, x_test[:4], programmed=programmed
            )
        assert programmed[0].compiled_plan is None


class TestBitIdentity:
    """compiled == fused == per-engine, exact (==, not allclose)."""

    def test_trained_mlp(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, fused, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:80]
        )
        np.testing.assert_array_equal(compiled, fused)
        np.testing.assert_array_equal(compiled, walked)

    def test_trained_cnn(
        self, executor, compiler, monkeypatch, trained_tiny_cnn
    ):
        topology, net, x_test, _ = trained_tiny_cnn
        compiled, fused, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:20]
        )
        np.testing.assert_array_equal(compiled, fused)
        np.testing.assert_array_equal(compiled, walked)

    @pytest.mark.parametrize("workload", ["MLP-S", "CNN-1"])
    def test_paper_workloads(
        self, executor, compiler, monkeypatch, workload
    ):
        """Bit-identity on the paper's topologies (random weights —
        identity does not depend on training)."""
        topology = get_workload(workload).topology()
        net = topology.build(rng=np.random.default_rng(3))
        x = np.random.default_rng(4).random(
            (12, *np.atleast_1d(topology.input_shape))
        )
        compiled, fused, _ = _run_modes(
            executor, compiler, monkeypatch, topology, net, x
        )
        np.testing.assert_array_equal(compiled, fused)

    @pytest.mark.parametrize("batch", [1, 2, 3, 17])
    def test_packed_and_unpacked_batches_agree(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data, batch,
    ):
        """Tiny batches take the packed-field kernel, wide ones the
        trimmed-stack kernel; both must match the fused reference."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, fused, _ = _run_modes(
            executor, compiler, monkeypatch, topology, net,
            x_test[:batch],
        )
        np.testing.assert_array_equal(compiled, fused)


class TestChunkedStreaming:
    @pytest.mark.parametrize("chunk_bytes", [1, 30_000, 200_000])
    def test_chunked_equals_unchunked(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data,
        chunk_bytes,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:80])
        chunked = executor.run_functional(
            net, plan, x_test[:80], chunk_bytes=chunk_bytes
        )
        np.testing.assert_array_equal(whole, chunked)

    def test_cnn_chunked(self, executor, compiler, trained_tiny_cnn):
        topology, net, x_test, _ = trained_tiny_cnn
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:24])
        chunked = executor.run_functional(
            net, plan, x_test[:24], chunk_bytes=1
        )
        np.testing.assert_array_equal(whole, chunked)


class TestSeededNoise:
    def test_noisy_run_reproduces_under_seed(
        self, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """With noise on the plan delegates to the kernels' seeded
        stream; two same-seed executors agree bit-for-bit, and the
        compiled path matches compilation disabled."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        x = x_test[:16]

        def run(seed, env=None):
            import os

            ex = PrimeExecutor(DEFAULT_PRIME_CONFIG)
            programmed = ex.program_network(
                net, plan, rng=np.random.default_rng(seed)
            )
            # Calibration pass (noise off), so the measured run needs
            # no freezing; it never touches the read-noise stream.
            ex.run_functional(net, plan, x, programmed=programmed)
            if env:
                os.environ.update(env)
            try:
                out = ex.run_functional(
                    net, plan, x, programmed=programmed,
                    with_noise=True,
                )
            finally:
                for k in env or {}:
                    os.environ.pop(k, None)
            if not env:
                assert programmed[0].compiled_plan is not None
            return out

        a = run(11)
        b = run(11)
        c = run(12)
        d = run(11, env={"PRIME_PLAN_COMPILE": "0"})
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_array_equal(a, d)


class TestTelemetryParity:
    @staticmethod
    def _engine_totals(programmed):
        return (
            sum(
                e.mvm_invocations
                for layer in programmed
                for row in layer.tiles
                for e in row
            ),
            sum(
                e.sense.conversions
                for layer in programmed
                for row in layer.tiles
                for e in row
            ),
        )

    def _counters(self, executor, compiler, trained_tiny_mlp, x, env):
        import os

        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        # Calibration warm-up, so the measured run freezes nothing;
        # measure engine counters as a delta across the run.
        executor.run_functional(net, plan, x, programmed=programmed)
        base = self._engine_totals(programmed)
        session = telemetry.enable(fresh=True)
        try:
            os.environ.update(env)
            try:
                executor.run_functional(
                    net, plan, x, programmed=programmed
                )
            finally:
                for k in env:
                    os.environ.pop(k, None)
            totals = (
                session.metrics.counter_total("mvm.invocations"),
                session.metrics.counter_total("mvm.model_time_ns"),
                session.metrics.counter_total("mvm.energy_nj"),
            )
        finally:
            telemetry.disable()
        if not env:
            assert programmed[0].compiled_plan is not None
        after = self._engine_totals(programmed)
        return (*totals, after[0] - base[0], after[1] - base[1])

    def test_compiled_charges_same_counters(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        x = x_test[:40]
        compiled = self._counters(
            executor, compiler, trained_tiny_mlp, x, {}
        )
        legacy = self._counters(
            executor, compiler, trained_tiny_mlp, x,
            {"PRIME_PLAN_COMPILE": "0"},
        )
        assert compiled == legacy
        assert compiled[0] > 0 and compiled[4] > 0


class TestPlanCache:
    def _programmed_run(self, executor, compiler, trained_tiny_mlp, x):
        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        # First run compiles and calibrates; the second reuses both.
        executor.run_functional(net, plan, x, programmed=programmed)
        out = executor.run_functional(
            net, plan, x, programmed=programmed
        )
        return net, plan, programmed, out

    def test_plan_cached_across_runs(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        net, plan, programmed, _ = self._programmed_run(
            executor, compiler, trained_tiny_mlp, x_test[:8]
        )
        host = programmed[0]
        first = host.compiled_plan
        assert isinstance(first, CompiledPlan)
        executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        assert host.compiled_plan is first

    def test_kernel_invalidation_forces_recompile(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """invalidate() (the resilience remap hook) must stale the
        cached plan; the recompiled plan still matches the fused path."""
        import os

        _, _, x_test, _ = tiny_digit_data
        net, plan, programmed, before = self._programmed_run(
            executor, compiler, trained_tiny_mlp, x_test[:8]
        )
        host = programmed[0]
        first = host.compiled_plan
        for layer in programmed:
            layer.kernel.invalidate()
        after = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        assert host.compiled_plan is not first
        np.testing.assert_array_equal(before, after)
        os.environ["PRIME_PLAN_COMPILE"] = "0"
        try:
            legacy = executor.run_functional(
                net, plan, x_test[:8], programmed=programmed
            )
        finally:
            os.environ.pop("PRIME_PLAN_COMPILE", None)
        np.testing.assert_array_equal(after, legacy)

    def test_compile_failure_warns_once_and_falls_back(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """A PlanCompileError downgrades to the interpreter with one
        PlanFallbackWarning and a perf.plan.fallback counter — results
        unchanged."""
        _, _, x_test, _ = tiny_digit_data
        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        reference = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )

        def boom(cls, *a, **kw):
            raise plan_mod.PlanCompileError("synthetic failure")

        monkeypatch.setattr(
            CompiledPlan, "compile", classmethod(boom)
        )
        for layer in programmed:
            layer.compiled_plan = None
            layer.plan_warned = False
            layer.kernel.invalidate()
        session = telemetry.enable(fresh=True)
        try:
            with pytest.warns(PlanFallbackWarning):
                out = executor.run_functional(
                    net, plan, x_test[:8], programmed=programmed
                )
            # Second run: fallback already noted, no second warning.
            with warnings.catch_warnings():
                warnings.simplefilter("error", PlanFallbackWarning)
                out2 = executor.run_functional(
                    net, plan, x_test[:8], programmed=programmed
                )
            assert (
                session.metrics.counter_total("perf.plan.fallback") >= 1
            )
        finally:
            telemetry.disable()
        np.testing.assert_array_equal(out, reference)
        np.testing.assert_array_equal(out2, reference)


FRESH_WORKLOADS = ["MLP-S", "MLP-M", "MLP-L", "CNN-1", "CNN-2"]


@pytest.fixture(scope="module", params=FRESH_WORKLOADS)
def fresh_workload(request):
    """A paper topology with random weights, its mapping plan, and 300
    inputs (identity does not depend on training)."""
    topology = get_workload(request.param).topology()
    net = topology.build(rng=np.random.default_rng(3))
    plan = PrimeCompiler(DEFAULT_PRIME_CONFIG).compile(topology)
    x = np.random.default_rng(4).random((300, *topology.input_shape))
    return topology, net, plan, x


def _calibration(programmed):
    return [(p.in_fmt.exponent, p.output_shift) for p in programmed]


def _im2col_calibration(executor, net, programmed, x, pin):
    """Each layer's calibration as the interpreter froze it before the
    shared helper: from the float im2col vectors (bias column
    included) of the first CALIBRATION_SAMPLES samples.  Activations
    propagate through ``programmed``'s own frozen calibration."""
    act = x[:CALIBRATION_SAMPLES]
    frozen = []
    layers = iter(programmed)
    for layer in net.layers:
        if not isinstance(layer, (Dense, Conv2D)):
            act = layer.forward(act)
            continue
        entry = next(layers)
        if isinstance(layer, Conv2D):
            vectors, _ = executor._im2col_activations(layer, act)
        else:
            vectors = act.reshape(len(act), -1)
        vecs = np.concatenate([vectors, np.ones((len(vectors), 1))], axis=1)
        fmt = DynamicFixedPoint.for_data(vecs, bits=pin, signed=False)
        codes = fmt.quantize_int(np.clip(vecs, 0.0, None))
        shift = entry.kernel.calibrate_output_shift(
            codes, calibration_samples=len(codes)
        )
        frozen.append((fmt.exponent, shift))
        act = executor._run_weight_layer(layer, entry, act, pin, False)
    return frozen


class TestFreshNetworkCompiles:
    """A freshly programmed network runs its first chunk compiled: the
    plan's weight steps freeze calibration as they first run, exactly
    as the interpreter would have."""

    def test_first_chunk_compiles_and_freezes_like_the_interpreter(
        self, executor, monkeypatch, fresh_workload
    ):
        _, net, plan, x = fresh_workload
        # An input peak under 1/2: the bias input sets layer 0's format.
        x = 0.4 * x
        interpreted_chunks = []
        forward_chunk = PrimeExecutor._forward_chunk

        def spy(self, *args, **kwargs):
            interpreted_chunks.append(len(args[2]))
            return forward_chunk(self, *args, **kwargs)

        programmed = executor.program_network(net, plan)
        session = telemetry.enable(fresh=True)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(PrimeExecutor, "_forward_chunk", spy)
                compiled = executor.run_functional(
                    net, plan, x, programmed=programmed
                )
            compiles = session.metrics.counter_total("perf.plan.compiles")
        finally:
            telemetry.disable()
        assert interpreted_chunks == []
        assert compiles == 1
        assert isinstance(programmed[0].compiled_plan, CompiledPlan)

        monkeypatch.setenv("PRIME_PLAN_COMPILE", "0")
        legacy = executor.program_network(net, plan)
        interpreted = executor.run_functional(
            net, plan, x, programmed=legacy
        )
        assert _calibration(programmed) == _calibration(legacy)
        np.testing.assert_array_equal(compiled, interpreted)
        pin = DEFAULT_PRIME_CONFIG.crossbar.effective_input_bits
        assert _calibration(programmed) == _im2col_calibration(
            executor, net, programmed, x, pin
        )

    def test_reset_calibration_recalibrates_on_the_next_call(
        self, executor, fresh_workload
    ):
        _, net, plan, x = fresh_workload
        programmed = executor.program_network(net, plan)
        executor.run_functional(net, plan, x[:80], programmed=programmed)
        first = _calibration(programmed)
        # A larger input peak moves the first layer's input format.
        louder = 2.5 * x[:80]
        for layer in programmed:
            layer.reset_calibration()
        again = executor.run_functional(
            net, plan, louder, programmed=programmed
        )
        fresh = executor.program_network(net, plan)
        expected = executor.run_functional(
            net, plan, louder, programmed=fresh
        )
        assert _calibration(programmed) == _calibration(fresh)
        assert _calibration(programmed)[0] != first[0]
        np.testing.assert_array_equal(again, expected)

    @pytest.mark.parametrize("chunk", [64, 100])
    def test_chunked_equals_unchunked(
        self, executor, monkeypatch, fresh_workload, chunk
    ):
        """First chunks of exactly the calibration prefix and of more
        than it, over a 300-sample batch."""
        _, net, plan, x = fresh_workload
        whole = executor.run_functional(
            net, plan, x, programmed=executor.program_network(net, plan)
        )
        sizes = []
        forward = PrimeExecutor._forward

        def spy(self, network, layers, act, *args):
            sizes.append(len(act))
            return forward(self, network, layers, act, *args)

        monkeypatch.setattr(PrimeExecutor, "_forward", spy)
        monkeypatch.setattr(
            executor,
            "_chunk_samples",
            lambda plan, batch, chunk_bytes: min(batch, chunk),
        )
        chunked = executor.run_functional(
            net, plan, x, programmed=executor.program_network(net, plan)
        )
        assert sizes[0] == chunk and sum(sizes) == len(x)
        np.testing.assert_array_equal(whole, chunked)

    def test_thread_deploy_prewarms_a_compiled_plan(self, fresh_workload):
        topology, net, _, x = fresh_workload
        with ServingRuntime(
            net,
            topology,
            serve_config=ServeConfig(mode="thread"),
            max_replicas=2,
            calibration=x[:CALIBRATION_SAMPLES],
        ) as runtime:
            dispatcher = runtime.dispatcher
            compiled = dispatcher._state[1][0].compiled_plan
            assert isinstance(compiled, CompiledPlan)
            assert compiled.workspaces_allocated == dispatcher.replicas == 2
            served = runtime.serve(x[:3])
            np.testing.assert_array_equal(served, runtime.reference(x[:3]))
