"""Tests for the composed MVM engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.engine import CrossbarMVMEngine
from repro.errors import CrossbarError
from repro.params.crossbar import CrossbarParams
from repro.precision.composing import composing_error_bound


@pytest.fixture
def engine() -> CrossbarMVMEngine:
    return CrossbarMVMEngine()  # ideal: no rng => no variation/noise


class TestProgramming:
    def test_program_and_dimensions(self, engine, rng):
        w = rng.integers(-255, 256, (100, 30))
        engine.program(w)
        assert engine.rows_used == 100
        assert engine.cols_used == 30

    def test_weight_layout_hi_lo_adjacent(self, engine):
        w = np.zeros((4, 2), dtype=np.int64)
        w[0, 0] = 0xAB  # hi=0xA, lo=0xB
        engine.program(w)
        pos = engine.pair.positive.cells.levels
        assert pos[0, 0] == 0xA  # high nibble, even bitline
        assert pos[0, 1] == 0xB  # low nibble, odd bitline

    def test_negative_weights_to_negative_array(self, engine):
        w = np.zeros((4, 2), dtype=np.int64)
        w[1, 1] = -0x5C
        engine.program(w)
        neg = engine.pair.negative.cells.levels
        assert neg[1, 2] == 0x5
        assert neg[1, 3] == 0xC

    def test_size_limits(self, engine):
        with pytest.raises(CrossbarError):
            engine.program(np.zeros((257, 4), dtype=np.int64))
        with pytest.raises(CrossbarError):
            engine.program(np.zeros((4, 129), dtype=np.int64))

    def test_magnitude_limit(self, engine):
        with pytest.raises(CrossbarError):
            engine.program(np.full((4, 4), 256))

    def test_mvm_before_program_rejected(self, engine):
        with pytest.raises(CrossbarError):
            engine.mvm(np.zeros(4, dtype=np.int64))

    def test_uncomposed_config_rejected(self):
        params = CrossbarParams(compose_inputs=False)
        with pytest.raises(CrossbarError):
            CrossbarMVMEngine(params)


class TestIdealAccuracy:
    def test_matches_truncated_reference(self, engine, rng):
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        out = engine.mvm(a, with_noise=False)
        exact = (a @ w) >> engine.spec.target_shift
        bound = composing_error_bound(engine.spec)
        assert np.abs(out - exact).max() <= bound

    def test_zero_inputs(self, engine, rng):
        engine.program(rng.integers(-255, 256, (64, 8)))
        out = engine.mvm(np.zeros(64, dtype=np.int64), with_noise=False)
        assert np.all(out == 0)

    def test_custom_output_shift_recovers_small_signals(self, engine, rng):
        # Small weights under the default window truncate to zero; a
        # calibrated (smaller) shift keeps the signal.
        w = rng.integers(-8, 9, (256, 8))
        engine.program(w)
        a = rng.integers(0, 8, 256)
        default = engine.mvm(a, with_noise=False)
        exact = a @ w
        shift = max(0, int(np.abs(exact).max()).bit_length() - 6)
        calibrated = engine.mvm(a, with_noise=False, output_shift=shift)
        rel_err = np.abs(calibrated * (1 << shift) - exact).max() / max(
            np.abs(exact).max(), 1
        )
        assert rel_err < 0.2
        # the default window must be no more informative
        assert np.count_nonzero(default) <= np.count_nonzero(calibrated)

    def test_batch_matches_single(self, engine, rng):
        w = rng.integers(-255, 256, (32, 8))
        engine.program(w)
        inputs = rng.integers(0, 64, (6, 32))
        batched = engine.mvm_batch(inputs, with_noise=False)
        singles = np.stack(
            [engine.mvm(row, with_noise=False) for row in inputs]
        )
        assert np.array_equal(batched, singles)

    def test_input_range_enforced(self, engine, rng):
        engine.program(rng.integers(-255, 256, (16, 4)))
        with pytest.raises(CrossbarError):
            engine.mvm(np.full(16, 64))
        with pytest.raises(CrossbarError):
            engine.mvm_batch(np.full((2, 16), -1))

    def test_input_length_enforced(self, engine, rng):
        engine.program(rng.integers(-255, 256, (16, 4)))
        with pytest.raises(CrossbarError):
            engine.mvm(np.zeros(17, dtype=np.int64))

    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_bounded_error_property(self, seed, rows):
        rng = np.random.default_rng(seed)
        engine = CrossbarMVMEngine()
        w = rng.integers(-255, 256, (rows, 4))
        engine.program(w)
        a = rng.integers(0, 64, rows)
        out = engine.mvm(a, with_noise=False)
        exact = (a @ w) >> engine.spec.target_shift
        # truncation of the signed difference costs a couple of LSBs
        # more than the unsigned bound
        assert np.abs(out - exact).max() <= (
            composing_error_bound(engine.spec) + 2
        )


class TestNoisyAccuracy:
    def test_variation_and_noise_bounded(self):
        rng = np.random.default_rng(9)
        engine = CrossbarMVMEngine(rng=rng)
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        exact = (a @ w) >> engine.spec.target_shift
        out = engine.mvm(a, with_noise=True)
        # device non-idealities cost a handful of output LSBs
        assert np.abs(out - exact).max() <= 8

    def test_noise_varies_between_calls(self):
        rng = np.random.default_rng(10)
        engine = CrossbarMVMEngine(rng=rng)
        w = rng.integers(-255, 256, (256, 64))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        shift = 8  # fine window so noise is visible
        o1 = engine.mvm(a, with_noise=True, output_shift=shift)
        o2 = engine.mvm(a, with_noise=True, output_shift=shift)
        assert not np.array_equal(o1, o2)
