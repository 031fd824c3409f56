"""Failure-injection studies: stuck-at faults and device variation."""

import numpy as np
import pytest

from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.pair import DifferentialPair
from repro.device.faults import FaultMap
from repro.params.crossbar import CrossbarParams
from repro.params.reram import ReRAMDeviceParams


def engine_with_faults(rate: float, seed: int = 0) -> CrossbarMVMEngine:
    """A 256×256 engine whose positive array carries stuck-at faults."""
    rng = np.random.default_rng(seed)
    params = CrossbarParams()
    engine = CrossbarMVMEngine(params)
    fault_map = FaultMap.random(
        256, 256, rate_hrs=rate / 2, rate_lrs=rate / 2, rng=rng
    )
    # swap in a faulty positive array before programming
    engine.pair = DifferentialPair(params, fault_maps=(fault_map, None))
    return engine


class TestStuckAtFaults:
    def test_zero_fault_rate_is_exact_path(self, rng):
        engine = engine_with_faults(0.0)
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        out = engine.mvm(a, with_noise=False)
        exact = (a @ w) >> engine.spec.target_shift
        assert np.abs(out - exact).max() <= 7

    def test_error_grows_with_fault_rate(self, rng):
        w = rng.integers(-255, 256, (256, 16))
        a = rng.integers(0, 64, 256)
        errors = []
        for rate in (0.0, 0.02, 0.10):
            engine = engine_with_faults(rate, seed=11)
            engine.program(w)
            out = engine.mvm(a, with_noise=False, output_shift=10)
            exact_fine = (a @ w) >> 10
            errors.append(float(np.abs(out - exact_fine).mean()))
        assert errors[0] <= errors[1] <= errors[2]
        assert errors[2] > errors[0]

    def test_stuck_lrs_worse_than_stuck_hrs_on_sparse_weights(self, rng):
        # Most cells are near HRS for sparse weights, so stuck-at-LRS
        # (maximum conductance) injects much larger current errors.
        w = np.zeros((256, 16), dtype=np.int64)  # all-zero weights
        a = rng.integers(0, 64, 256)
        outs = {}
        for polarity in ("hrs", "lrs"):
            fm = FaultMap.none(256, 256)
            mask = np.zeros((256, 256), dtype=bool)
            mask[::16, ::16] = True
            if polarity == "hrs":
                fm.stuck_hrs[:] = mask
            else:
                fm.stuck_lrs[:] = mask
            params = CrossbarParams()
            engine = CrossbarMVMEngine(params)
            engine.pair = DifferentialPair(params, fault_maps=(fm, None))
            engine.program(w)
            outs[polarity] = np.abs(
                engine.mvm(a, with_noise=False, output_shift=4)
            ).sum()
        assert outs["lrs"] > outs["hrs"]


class TestVariationSweep:
    @pytest.mark.parametrize("sigma", [0.0, 0.03, 0.10])
    def test_output_error_scales_with_sigma(self, sigma, rng):
        device = ReRAMDeviceParams(
            programming_sigma=sigma, read_noise_sigma=0.0
        )
        params = CrossbarParams(device=device)
        engine = CrossbarMVMEngine(
            params, rng=np.random.default_rng(21)
        )
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        exact_full = a @ w
        # calibrated output window, as the executor chooses it
        shift = max(0, int(np.abs(exact_full).max()).bit_length() - 6)
        out = engine.mvm(a, with_noise=False, output_shift=shift)
        exact = exact_full >> shift
        err = float(np.abs(out - exact).mean())
        if sigma == 0.0:
            assert err <= 4.0  # truncation only
        else:
            # variation adds error but stays bounded in the Po window
            assert err <= 4.0 + 400 * sigma

    def test_accuracy_degrades_gracefully(
        self, trained_tiny_mlp, tiny_digit_data
    ):
        from repro.core.compiler import PrimeCompiler
        from repro.core.executor import PrimeExecutor
        from repro.params.prime import PrimeConfig

        topology, net = trained_tiny_mlp
        _, _, x_test, y_test = tiny_digit_data
        accs = {}
        for sigma in (0.0, 0.15):
            device = ReRAMDeviceParams(programming_sigma=sigma)
            config = PrimeConfig(crossbar=CrossbarParams(device=device))
            executor = PrimeExecutor(config)
            plan = PrimeCompiler(config).compile(topology)
            out = executor.run_functional(
                net,
                plan,
                x_test[:150],
                rng=np.random.default_rng(31),
            )
            accs[sigma] = float(
                np.mean(np.argmax(out, 1) == y_test[:150])
            )
        assert accs[0.0] >= accs[0.15] - 0.02
        assert accs[0.15] > 0.3  # degraded but not destroyed
