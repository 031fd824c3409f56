"""Tests for the plan compiler (``repro.perf.plan``).

The contract under test: with noise off, ``run_functional`` produces
*bit-identical* outputs whether a layer chain executes through the
compiled plan or, with ``PRIME_FUSED=0``, through the per-engine tile
walk at every weight step; both paths charge the same hardware
counters; the noisy path reproduces under a fixed seed; chunked
streaming never changes the output; and the plan cache invalidates
itself when the programmed state it was compiled from changes.
"""

import collections

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.errors import ExecutionError
from repro.eval.workloads import get_workload
from repro.nn.layers import Conv2D, Dense
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf import plan as plan_mod
from repro.perf.plan import CALIBRATION_SAMPLES, CompiledPlan
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
    monkeypatch.delenv("PRIME_FUSED", raising=False)


def _run_modes(executor, compiler, monkeypatch, topology, net, x):
    """run_functional compiled, then walked, same inputs.

    The first pass over a fresh programmed list compiles the plan and
    freezes calibration; the walk runs against that calibrated list,
    and the compiled mode asserts the plan really engaged.
    """
    plan = compiler.compile(topology)
    programmed = executor.program_network(net, plan)
    warmup = executor.run_functional(net, plan, x, programmed=programmed)
    compiled = executor.run_functional(
        net, plan, x, programmed=programmed
    )
    assert programmed[0].compiled_plan is not None
    monkeypatch.setenv("PRIME_FUSED", "0")
    walked = executor.run_functional(net, plan, x, programmed=programmed)
    # The calibrating first pass saw the same inputs.
    np.testing.assert_array_equal(warmup, compiled)
    return compiled, walked


class TestWalkKnob:
    def test_fused_off_walks_every_step(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        """PRIME_FUSED=0 sends every weight step of the compiled plan
        down the per-engine walk: no inline path runs, each engine's
        mvm_batch fires once per chunk, and the output equals the
        default run."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        x = x_test[:80]
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        default = executor.run_functional(
            net, plan, x, programmed=programmed
        )
        fired = collections.Counter()
        mvm_batch = CrossbarMVMEngine.mvm_batch

        def spy(engine, *args, **kwargs):
            fired[id(engine)] += 1
            return mvm_batch(engine, *args, **kwargs)

        def inline(*args, **kwargs):
            raise AssertionError("inline path ran under PRIME_FUSED=0")

        monkeypatch.setattr(CrossbarMVMEngine, "mvm_batch", spy)
        monkeypatch.setattr(plan_mod._WeightStep, "_inline", inline)
        monkeypatch.setattr(plan_mod._WeightStep, "_conv_inline", inline)
        # Two chunks: the 64-sample calibration prefix, then 16.
        monkeypatch.setattr(
            executor, "_chunk_samples", lambda plan, batch, chunk_bytes: 40
        )
        monkeypatch.setenv("PRIME_FUSED", "0")
        walked = executor.run_functional(
            net, plan, x, programmed=programmed
        )
        engines = [e for p in programmed for row in p.tiles for e in row]
        assert fired == {id(e): 2 for e in engines}
        assert isinstance(programmed[0].compiled_plan, CompiledPlan)
        np.testing.assert_array_equal(walked, default)


class TestBitIdentity:
    """compiled == per-engine walk, exact (==, not allclose)."""

    def test_trained_mlp(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:80]
        )
        np.testing.assert_array_equal(compiled, walked)

    def test_trained_cnn(
        self, executor, compiler, monkeypatch, trained_tiny_cnn
    ):
        topology, net, x_test, _ = trained_tiny_cnn
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x_test[:20]
        )
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
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net, x
        )
        np.testing.assert_array_equal(compiled, walked)

    @pytest.mark.parametrize("batch", [1, 2, 3, 17])
    def test_packed_and_unpacked_batches_agree(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data, batch,
    ):
        """Tiny batches take the packed-field stack, wide ones the
        trimmed stacks; both must match the per-engine walk."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        compiled, walked = _run_modes(
            executor, compiler, monkeypatch, topology, net,
            x_test[:batch],
        )
        np.testing.assert_array_equal(compiled, walked)


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
        """With noise on, each array draws from the engines' seeded
        stream; two same-seed executors agree bit-for-bit."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        x = x_test[:16]

        def run(seed):
            ex = PrimeExecutor(DEFAULT_PRIME_CONFIG)
            programmed = ex.program_network(
                net, plan, rng=np.random.default_rng(seed)
            )
            # Calibration pass (noise off), so the measured run needs
            # no freezing; it never touches the read-noise stream.
            ex.run_functional(net, plan, x, programmed=programmed)
            out = ex.run_functional(
                net, plan, x, programmed=programmed, with_noise=True
            )
            assert programmed[0].compiled_plan is not None
            return out

        a = run(11)
        b = run(11)
        c = run(12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


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
                e.sa_conversions
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
        walked = self._counters(
            executor, compiler, trained_tiny_mlp, x, {"PRIME_FUSED": "0"}
        )
        assert compiled == walked
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

    def test_invalidation_forces_recompile(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """invalidate() (the resilience remap hook) must stale the
        cached plan; the recompiled plan still matches the walk."""
        import os

        _, _, x_test, _ = tiny_digit_data
        net, plan, programmed, before = self._programmed_run(
            executor, compiler, trained_tiny_mlp, x_test[:8]
        )
        host = programmed[0]
        first = host.compiled_plan
        for layer in programmed:
            layer.invalidate()
        after = executor.run_functional(
            net, plan, x_test[:8], programmed=programmed
        )
        assert host.compiled_plan is not first
        np.testing.assert_array_equal(before, after)
        os.environ["PRIME_FUSED"] = "0"
        try:
            walked = executor.run_functional(
                net, plan, x_test[:8], programmed=programmed
            )
        finally:
            os.environ.pop("PRIME_FUSED", None)
        np.testing.assert_array_equal(after, walked)

    def test_run_layer_relowers_and_rebuilds(self, rng, layer_runs):
        """run_layer memoises one step per layer: a calibration that
        changes by value re-lowers it in place, an equal one leaves it
        be, and invalidate() rebuilds it; each result equals a fresh
        walk of the same state."""
        xbar = DEFAULT_PRIME_CONFIG.crossbar
        engine = CrossbarMVMEngine(xbar)
        engine.program(rng.integers(-255, 256, (40, 9)))
        layer = ProgrammedLayer([[engine]], DynamicFixedPoint(9, -6))
        x = rng.random((5, 39)) * 3.0

        def calibrate(exponent, shift):
            layer.in_fmt = DynamicFixedPoint(6, exponent, signed=False)
            layer.output_shift = shift
            (inline, _), (walked, _) = layer_runs(layer, x)
            np.testing.assert_array_equal(inline, walked)
            return layer.compiled_plan

        first = calibrate(-4, 12)
        step = first.steps[0]
        assert calibrate(-4, 10) is first and step.shift == 10
        lowered = step.in_fmt
        assert calibrate(-4, 10) is first and step.in_fmt is lowered
        assert calibrate(-3, 10) is first and step.in_fmt.exponent == -3
        layer.invalidate()
        assert calibrate(-3, 10) is not first

    def test_mismatched_programmed_list_raises(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """A programmed list that does not line up with the network's
        weight layers cannot compile, and nothing else runs it."""
        _, _, x_test, _ = tiny_digit_data
        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        for wrong in (programmed[:-1], programmed + programmed[:1]):
            with pytest.raises(ExecutionError, match="weight layers"):
                executor.run_functional(
                    net, plan, x_test[:8], programmed=wrong
                )


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


def _im2col_forward(net, programmed, x, pin, float_im2col):
    """Each layer's calibration as frozen from the float im2col
    vectors (bias column included) of the first CALIBRATION_SAMPLES
    samples, independently of the plan's code gather, and those
    samples' outputs.  Activations propagate through ``programmed``'s
    own frozen calibration."""
    act = x[:CALIBRATION_SAMPLES]
    frozen = []
    layers = iter(programmed)
    for layer in net.layers:
        if not isinstance(layer, (Dense, Conv2D)):
            act = layer.forward(act)
            continue
        entry = next(layers)
        if isinstance(layer, Conv2D):
            vectors, spatial = float_im2col(layer, act)
        else:
            vectors, spatial = act.reshape(len(act), -1), (len(act),)
        vecs = np.concatenate([vectors, np.ones((len(vectors), 1))], axis=1)
        fmt = DynamicFixedPoint.for_data(vecs, bits=pin, signed=False)
        codes = fmt.quantize_int(np.clip(vecs, 0.0, None))
        shift = entry.calibrate_output_shift(
            codes, calibration_samples=len(codes)
        )
        frozen.append((fmt.exponent, shift))
        codes = entry.in_fmt.quantize_int(np.clip(vecs, 0.0, None))
        out = entry.mvm_batch(
            codes, with_noise=False, output_shift=entry.output_shift
        )
        scale = (
            2.0 ** entry.output_shift
            * entry.in_fmt.resolution
            * entry.w_fmt.resolution
        )
        act = (out * scale).reshape(*spatial, -1)
    return frozen, act


class TestFreshNetworkCompiles:
    """A freshly programmed network runs its first chunk compiled: the
    plan's weight steps freeze calibration as they first run, exactly
    as a float-im2col reference freezes it, and the walk agrees."""

    def test_first_chunk_compiles_and_freezes_like_the_interpreter(
        self, executor, monkeypatch, fresh_workload, float_im2col
    ):
        _, net, plan, x = fresh_workload
        # An input peak under 1/2: the bias input sets layer 0's format.
        x = 0.4 * x
        programmed = executor.program_network(net, plan)
        session = telemetry.enable(fresh=True)
        try:
            compiled = executor.run_functional(
                net, plan, x, programmed=programmed
            )
            compiles = session.metrics.counter_total("perf.plan.compiles")
        finally:
            telemetry.disable()
        assert compiles == 1
        assert isinstance(programmed[0].compiled_plan, CompiledPlan)

        # A fresh copy walked over the calibration prefix and 16 more
        # samples freezes alike and computes the same rows.
        monkeypatch.setenv("PRIME_FUSED", "0")
        walk = executor.program_network(net, plan)
        n = CALIBRATION_SAMPLES + 16
        walked = executor.run_functional(net, plan, x[:n], programmed=walk)
        assert _calibration(programmed) == _calibration(walk)
        np.testing.assert_array_equal(compiled[:n], walked)
        pin = DEFAULT_PRIME_CONFIG.crossbar.effective_input_bits
        frozen, out = _im2col_forward(
            net, programmed, x, pin, float_im2col
        )
        assert _calibration(programmed) == frozen
        np.testing.assert_array_equal(compiled[:CALIBRATION_SAMPLES], out)

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
            assert dispatcher.replicas == 2
            # The calibration forward's buffers were freed at deploy.
            assert getattr(compiled._scratch, "stores", None) is None
            served = runtime.serve(x[:3])
            np.testing.assert_array_equal(served, runtime.reference(x[:3]))
