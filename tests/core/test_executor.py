"""Tests for the PRIME executor (analytical + functional paths)."""

import numpy as np
import pytest

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.errors import ExecutionError
from repro.eval.workloads import get_workload
from repro.nn.topology import parse_topology
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.precision.dynamic_fixed_point import DynamicFixedPoint


@pytest.fixture
def executor() -> PrimeExecutor:
    return PrimeExecutor()


@pytest.fixture
def compiler() -> PrimeCompiler:
    return PrimeCompiler()


class TestAnalyticalModel:
    def test_report_fields_positive(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        rep = executor.estimate(plan, batch=4096)
        assert rep.latency_s > 0
        assert rep.energy_j > 0
        assert rep.compute_energy_j > 0
        assert rep.system == "PRIME"

    def test_memory_time_hidden(self, executor, compiler):
        # Fig. 9: PRIME's memory access time is hidden by the buffers
        # (zero for single-bank workloads).
        plan = compiler.compile(get_workload("MLP-M").topology())
        rep = executor.estimate(plan, batch=64)
        assert rep.memory_time_s == 0.0
        assert rep.memory_energy_j > 0.0  # energy still counted

    def test_batch_scales_energy_linearly(self, executor, compiler):
        plan = compiler.compile(get_workload("CNN-1").topology())
        e1 = executor.estimate(plan, batch=64).energy_j
        e2 = executor.estimate(plan, batch=128).energy_j
        assert e2 == pytest.approx(2 * e1, rel=1e-6)

    def test_bank_parallelism_improves_throughput(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        serial = executor.estimate(
            plan, batch=4096, use_bank_parallelism=False
        )
        parallel = executor.estimate(plan, batch=4096)
        assert parallel.latency_s < serial.latency_s / 8

    def test_batch_of_one_is_fill_latency(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        rep = executor.estimate(plan, batch=1)
        assert rep.latency_s == pytest.approx(
            rep.extras["sample_latency_s"]
        )

    def test_steady_state_uses_bottleneck(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        r1 = executor.estimate(plan, batch=64, use_bank_parallelism=False)
        r2 = executor.estimate(plan, batch=65, use_bank_parallelism=False)
        delta = r2.latency_s - r1.latency_s
        assert delta == pytest.approx(r1.extras["bottleneck_s"], rel=1e-6)

    def test_vgg_charges_interbank_memory_time(self, executor, compiler):
        plan = compiler.compile(get_workload("VGG-D").topology())
        rep = executor.estimate(plan, batch=64)
        assert rep.memory_time_s > 0.0  # inter-bank hops are visible

    def test_replication_reduces_conv_latency(self, executor, compiler):
        top = get_workload("CNN-1").topology()
        bare = compiler.compile(top, replicate=False)
        rich = compiler.compile(top, replicate=True)
        t_bare = executor.estimate(bare, batch=4096).latency_s
        t_rich = executor.estimate(rich, batch=4096).latency_s
        assert t_rich < t_bare

    def test_replication_does_not_change_energy_much(
        self, executor, compiler
    ):
        top = get_workload("CNN-1").topology()
        bare = compiler.compile(top, replicate=False)
        rich = compiler.compile(top, replicate=True)
        e_bare = executor.estimate(bare, batch=64).compute_energy_j
        e_rich = executor.estimate(rich, batch=64).compute_energy_j
        assert e_rich == pytest.approx(e_bare, rel=0.05)

    def test_naive_serial_slower_than_pipeline(self, executor, compiler):
        top = get_workload("VGG-D").topology()
        pipelined = compiler.compile(top)
        naive = compiler.compile_naive_serial(top)
        t_pipe = executor.estimate(pipelined, batch=4096).latency_s
        t_naive = executor.estimate(naive, batch=4096).latency_s
        assert t_naive > t_pipe

    def test_invalid_batch(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        with pytest.raises(ExecutionError):
            executor.estimate(plan, batch=0)


class TestFunctionalPath:
    def test_mlp_matches_float_reference(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, y_test = tiny_digit_data
        plan = compiler.compile(topology)
        out = executor.run_functional(net, plan, x_test[:100])
        prime_acc = float(np.mean(np.argmax(out, axis=1) == y_test[:100]))
        float_acc = net.accuracy(x_test[:100], y_test[:100])
        assert prime_acc >= float_acc - 0.10

    def test_noisy_run_still_accurate(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, y_test = tiny_digit_data
        plan = compiler.compile(topology)
        out = executor.run_functional(
            net,
            plan,
            x_test[:100],
            rng=np.random.default_rng(3),
            with_noise=True,
        )
        acc = float(np.mean(np.argmax(out, axis=1) == y_test[:100]))
        assert acc >= net.accuracy(x_test[:100], y_test[:100]) - 0.15

    def test_cnn_functional(self, executor, compiler, trained_tiny_cnn):
        topology, net, x_test, y_test = trained_tiny_cnn
        plan = compiler.compile(topology)
        out = executor.run_functional(net, plan, x_test[:60])
        acc = float(np.mean(np.argmax(out, axis=1) == y_test[:60]))
        assert acc >= net.accuracy(x_test[:60], y_test[:60]) - 0.15

    def test_layer_count_mismatch_rejected(self, executor, compiler):
        topology = parse_topology("a", "784-32-10")
        other = parse_topology("b", "784-32-32-10")
        net = other.build()
        plan = compiler.compile(topology)
        with pytest.raises(ExecutionError):
            executor.run_functional(net, plan, np.zeros((1, 784)))

    def test_shape_mismatch_rejected(self, executor, compiler):
        topology = parse_topology("a", "784-32-10")
        wrong = parse_topology("b", "784-33-10").build()
        plan = compiler.compile(topology)
        with pytest.raises(ExecutionError):
            executor.run_functional(wrong, plan, np.zeros((1, 784)))

    def test_programmed_engines_reusable(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        out1 = executor.run_functional(
            net, plan, x_test[:10], programmed=programmed
        )
        out2 = executor.run_functional(
            net, plan, x_test[:10], programmed=programmed
        )
        assert np.allclose(out1, out2)

    def test_quantize_layer_matrices_includes_bias_row(
        self, executor, compiler, trained_tiny_mlp
    ):
        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        quantized = executor.quantize_layer_matrices(net, plan)
        (w_int, _), mapping = quantized[0], plan.weight_layers[0]
        assert w_int.shape == (mapping.rows, mapping.cols)
        assert w_int.shape[0] == net.layers[0].weight.shape[0] + 1

    @pytest.mark.parametrize(
        "case", ["random", "all-zero", "full-scale", "denormal-peak"]
    )
    def test_quantize_layer_matrices_is_quantize_int(
        self, executor, compiler, case
    ):
        """The in-place quantiser gives exactly the format ``for_data``
        picks for the bias-augmented matrix and the integers its
        ``quantize_int`` gives, in int16: on random weights, all zeros,
        a peak at exactly full scale with half-LSB ties, and a denormal
        peak (the exponent clamp)."""
        topology = parse_topology("differential", "300-40-7")
        net = topology.build(rng=np.random.default_rng(0))
        plan = compiler.compile(topology)
        rng = np.random.default_rng(1)
        for layer in net.layers:
            if not hasattr(layer, "weight"):
                continue
            shape = (layer.weight.shape[0] + 1, layer.weight.shape[1])
            if case == "random":
                values = rng.standard_normal(shape) * 0.1
            elif case == "all-zero":
                values = np.zeros(shape)
            elif case == "full-scale":
                # On the 2**-5 grid, with half-LSB ties, peaking at
                # exactly +-int_max LSBs.
                values = rng.integers(-510, 511, shape) / 2.0 * 2.0**-5
                values.flat[0] = 255 * 2.0**-5
                values.flat[-1] = -255 * 2.0**-5
            else:
                values = rng.standard_normal(shape) * 1e-310
            layer.weight[...] = values[:-1]
            layer.bias[...] = values[-1]
        pw = DEFAULT_PRIME_CONFIG.crossbar.effective_weight_bits
        quantized = executor.quantize_layer_matrices(net, plan)
        weights = [l for l in net.layers if hasattr(l, "weight")]
        for layer, (w_int, w_fmt) in zip(weights, quantized):
            augmented = np.vstack([layer.weight, layer.bias.reshape(1, -1)])
            fmt = DynamicFixedPoint.for_data(augmented, bits=pw + 1)
            assert w_fmt == fmt
            np.testing.assert_array_equal(w_int, fmt.quantize_int(augmented))
            assert w_int.dtype == np.int16
        if case == "full-scale":
            assert quantized[0][1].exponent == -5

    def test_iter_tiles_covers_matrix(self, executor, compiler):
        plan = compiler.compile(get_workload("MLP-S").topology())
        mapping = plan.weight_layers[0]
        w_int = np.zeros((mapping.rows, mapping.cols), dtype=np.int64)
        seen = np.zeros_like(w_int)
        for rb, cb, tile in executor.iter_tiles(mapping, w_int):
            r0 = rb * 256
            c0 = cb * 128
            seen[r0 : r0 + tile.shape[0], c0 : c0 + tile.shape[1]] += 1
        assert np.all(seen == 1)


class TestChunkModel:
    def test_max_chunk_samples_tracks_chunk_bytes(
        self, executor, compiler
    ):
        plan = compiler.compile(get_workload("MLP-S").topology())
        small = executor.max_chunk_samples(plan, chunk_bytes=1 << 16)
        large = executor.max_chunk_samples(plan, chunk_bytes=1 << 24)
        assert 1 <= small <= large
        # Above the one-sample floor the bound scales with the budget.
        assert large >= 64 * small
