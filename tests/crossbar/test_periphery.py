"""Tests for drivers, sense amplifiers, pairs, and functional units."""

import numpy as np
import pytest

from repro.crossbar.array import ArrayMode
from repro.crossbar.drivers import WordlineDriver
from repro.crossbar.functional_units import (
    MAXPOOL4_WEIGHTS,
    MaxPool4Unit,
    ReLUUnit,
    SigmoidUnit,
    mean_pool_weights,
)
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import ReconfigurableSenseAmp
from repro.errors import CrossbarError
from repro.params.crossbar import CrossbarParams


@pytest.fixture
def params() -> CrossbarParams:
    return CrossbarParams(rows=16, cols=16, sense_amps=8)


class TestWordlineDriver:
    def test_memory_mode_rejects_latch(self, params):
        driver = WordlineDriver(params)
        with pytest.raises(CrossbarError):
            driver.latch_inputs(np.zeros(16, dtype=int))

    def test_latch_zero_extends(self, params):
        driver = WordlineDriver(params)
        driver.set_compute_mode(True)
        driver.latch_inputs(np.array([7, 3]))
        latch = driver.latch
        assert latch[0] == 7 and latch[1] == 3
        assert np.all(latch[2:] == 0)

    def test_code_range_enforced(self, params):
        driver = WordlineDriver(params)
        driver.set_compute_mode(True)
        with pytest.raises(CrossbarError):
            driver.latch_inputs(np.array([8]))
        with pytest.raises(CrossbarError):
            driver.latch_inputs(np.array([-1]))

    def test_too_many_codes(self, params):
        driver = WordlineDriver(params)
        driver.set_compute_mode(True)
        with pytest.raises(CrossbarError):
            driver.latch_inputs(np.zeros(17, dtype=int))

    def test_quantize_inputs_endpoints(self, params):
        driver = WordlineDriver(params)
        codes = driver.quantize_inputs(np.array([0.0, 1.0, 0.5]))
        assert codes[0] == 0
        assert codes[1] == params.input_levels - 1
        assert 0 < codes[2] < params.input_levels - 1

    def test_quantize_rejects_unnormalised(self, params):
        driver = WordlineDriver(params)
        with pytest.raises(CrossbarError):
            driver.quantize_inputs(np.array([1.5]))

    def test_leaving_compute_clears_latch(self, params):
        driver = WordlineDriver(params)
        driver.set_compute_mode(True)
        driver.latch_inputs(np.full(16, 5))
        driver.set_compute_mode(False)
        assert np.all(driver.latch == 0)


class TestSenseAmp:
    def test_default_full_precision(self, params):
        sa = ReconfigurableSenseAmp(params)
        assert sa.precision == params.output_bits

    def test_precision_reconfigurable_1_to_po(self, params):
        sa = ReconfigurableSenseAmp(params)
        for bits in range(1, params.output_bits + 1):
            sa.configure_precision(bits)
            assert sa.precision == bits

    def test_precision_bounds(self, params):
        sa = ReconfigurableSenseAmp(params)
        with pytest.raises(CrossbarError):
            sa.configure_precision(0)
        with pytest.raises(CrossbarError):
            sa.configure_precision(params.output_bits + 1)

    def test_convert_keeps_top_bits(self, params):
        sa = ReconfigurableSenseAmp(params)
        sa.configure_precision(3)
        # full scale 6 bits; value 0b101101 -> top 3 bits 0b101
        out = sa.convert(np.array([0b101101]), full_scale_bits=6)
        assert out[0] == 0b101

    def test_convert_signed(self, params):
        sa = ReconfigurableSenseAmp(params)
        sa.configure_precision(6)
        out = sa.convert(np.array([-10.0, 10.0]), full_scale_bits=6)
        assert out[0] == -10 and out[1] == 10

    def test_convert_clips_overrange(self, params):
        sa = ReconfigurableSenseAmp(params)
        sa.configure_precision(6)
        out = sa.convert(np.array([1000.0]), full_scale_bits=6)
        assert out[0] == 63

    def test_conversion_counting(self, params):
        sa = ReconfigurableSenseAmp(params)
        sa.convert(np.zeros(10), full_scale_bits=6)
        assert sa.conversions == 10


class TestDifferentialPair:
    def test_signed_mvm_cancels_baseline(self, params, rng):
        pair = DifferentialPair(params)
        pair.set_mode(ArrayMode.COMPUTE)
        signed = rng.integers(-15, 16, (16, 16))
        pair.program_signed_levels(signed)
        inputs = rng.integers(0, 8, 16)
        counts = pair.analog_mvm_counts(inputs, with_noise=False)
        assert np.allclose(counts, inputs @ signed, atol=1e-6)

    def test_positive_and_negative_split(self, params):
        pair = DifferentialPair(params)
        pair.set_mode(ArrayMode.COMPUTE)
        signed = np.zeros((16, 16), dtype=np.int64)
        signed[0, 0] = 7
        signed[1, 1] = -5
        pair.program_signed_levels(signed)
        assert pair.positive.cells.levels[0, 0] == 7
        assert pair.positive.cells.levels[1, 1] == 0
        assert pair.negative.cells.levels[1, 1] == 5
        assert pair.negative.cells.levels[0, 0] == 0

    def test_magnitude_limit(self, params):
        pair = DifferentialPair(params)
        pair.set_mode(ArrayMode.COMPUTE)
        with pytest.raises(CrossbarError):
            pair.program_signed_levels(np.full((16, 16), 16))


class TestSigmoidUnit:
    def test_sigmoid_midpoint(self):
        unit = SigmoidUnit()
        assert unit.apply(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_saturation(self):
        unit = SigmoidUnit()
        out = unit.apply(np.array([-50.0, 50.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-9)
        assert out[1] == pytest.approx(1.0, abs=1e-9)

    def test_bypass(self):
        unit = SigmoidUnit(bypass=True)
        x = np.array([-3.0, 4.0])
        assert np.array_equal(unit.apply(x), x)

    def test_gain(self):
        steep = SigmoidUnit(gain=10.0)
        shallow = SigmoidUnit(gain=0.1)
        assert steep.apply(np.array([1.0]))[0] > shallow.apply(
            np.array([1.0])
        )[0]

    def test_gain_validation(self):
        with pytest.raises(CrossbarError):
            SigmoidUnit(gain=0.0)


class TestReLUUnit:
    def test_negative_zeroed(self):
        unit = ReLUUnit()
        out = unit.apply(np.array([-2.0, 0.0, 3.0]))
        assert out.tolist() == [0.0, 0.0, 3.0]

    def test_bypass(self):
        unit = ReLUUnit(bypass=True)
        x = np.array([-2.0, 3.0])
        assert np.array_equal(unit.apply(x), x)

    def test_integer_inputs(self):
        unit = ReLUUnit()
        out = unit.apply(np.array([-5, 5], dtype=np.int64))
        assert out.tolist() == [0, 5]


class TestMaxPool4Unit:
    def test_weight_matrix_matches_paper(self):
        # §III-E lists exactly these six difference vectors.
        expected = [
            [1, -1, 0, 0],
            [1, 0, -1, 0],
            [1, 0, 0, -1],
            [0, 1, -1, 0],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
        ]
        assert MAXPOOL4_WEIGHTS.tolist() == expected

    def test_selects_maximum_all_positions(self):
        unit = MaxPool4Unit()
        for pos in range(4):
            quad = [1.0, 2.0, 3.0, 4.0]
            quad[pos] = 10.0
            assert unit.select(np.array(quad)) == 10.0

    def test_matches_numpy_max(self, rng):
        unit = MaxPool4Unit()
        groups = rng.standard_normal((50, 4))
        out = unit.apply(groups)
        assert np.allclose(out, groups.max(axis=1))

    def test_ties_resolved_to_max_value(self):
        unit = MaxPool4Unit()
        assert unit.select(np.array([2.0, 2.0, 1.0, 0.0])) == 2.0

    def test_wrong_group_size(self):
        unit = MaxPool4Unit()
        with pytest.raises(CrossbarError):
            unit.apply(np.zeros((3, 5)))

    def test_winner_code_length(self):
        unit = MaxPool4Unit()
        code = unit.winner_code(np.array([1.0, 2.0, 3.0, 4.0]))
        assert len(code) == 6
        assert all(bit in (0, 1) for bit in code)


class TestMeanPoolWeights:
    def test_uniform_weights(self):
        w = mean_pool_weights(4)
        assert np.allclose(w, 0.25)

    def test_dot_product_is_mean(self, rng):
        values = rng.random(9)
        assert values @ mean_pool_weights(9) == pytest.approx(values.mean())

    def test_validation(self):
        with pytest.raises(CrossbarError):
            mean_pool_weights(0)
