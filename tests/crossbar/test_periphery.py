"""Tests for differential pairs and functional units."""

import numpy as np
import pytest

from repro.crossbar.functional_units import (
    MAXPOOL4_WEIGHTS,
    MaxPool4Unit,
    ReLUUnit,
    SigmoidUnit,
    mean_pool_weights,
)
from repro.crossbar.pair import DifferentialPair
from repro.errors import CrossbarError, DeviceError
from repro.params.crossbar import CrossbarParams
from repro.resilience import ResiliencePolicy


@pytest.fixture
def params() -> CrossbarParams:
    return CrossbarParams(rows=16, cols=16, sense_amps=8)


class TestDifferentialPair:
    def test_signed_mvm_cancels_baseline(self, params, rng):
        pair = DifferentialPair(params)
        signed = rng.integers(-15, 16, (16, 16))
        pair.program_signed_levels(signed)
        inputs = rng.integers(0, 8, 16)
        counts = pair.analog_mvm_counts(inputs, with_noise=False)
        assert np.allclose(counts, inputs @ signed, atol=1e-6)

    def test_positive_and_negative_split(self, params):
        pair = DifferentialPair(params)
        signed = np.zeros((16, 16), dtype=np.int64)
        signed[0, 0] = 7
        signed[1, 1] = -5
        pair.program_signed_levels(signed)
        assert pair.positive.levels[0, 0] == 7
        assert pair.positive.levels[1, 1] == 0
        assert pair.negative.levels[1, 1] == 5
        assert pair.negative.levels[0, 0] == 0

    def test_magnitude_limit(self, params):
        pair = DifferentialPair(params)
        with pytest.raises(CrossbarError):
            pair.program_signed_levels(np.full((16, 16), 16))

    def test_input_level_range_enforced(self, params):
        pair = DifferentialPair(params)
        pair.program_signed_levels(np.zeros((16, 16), dtype=np.int64))
        with pytest.raises(CrossbarError):
            pair.analog_mvm_counts(np.full(16, 8))
        with pytest.raises(CrossbarError):
            pair.analog_mvm_counts(np.full(16, -1))

    def test_wrong_input_length(self, params):
        pair = DifferentialPair(params)
        pair.program_signed_levels(np.zeros((16, 16), dtype=np.int64))
        with pytest.raises(CrossbarError):
            pair.analog_mvm_counts(np.zeros(8))

    def test_non_integer_levels_rejected(self, params):
        # Every pair write hands its levels to the cells, which reject
        # non-integers instead of truncating them to other levels.
        signed = np.zeros((16, 16))
        signed[0, :4] = [1.5, -2.7, 3.2, -0.4]
        mask = np.zeros((16, 16), dtype=bool)
        mask[0, :4] = True
        verify = ResiliencePolicy(verify_writes=True)
        pair = DifferentialPair(params)
        with pytest.raises(DeviceError):
            pair.program_signed_levels(signed)
        with pytest.raises(DeviceError):
            pair.program_signed_levels(
                signed, verify=verify, verify_mask=mask
            )
        with pytest.raises(DeviceError):
            pair.program_signed_masked(signed, mask, verify)
        assert not pair.positive.levels.any()
        assert not pair.negative.levels.any()


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
