"""Tests for the vectorised ReRAM cell-array model."""

import numpy as np
import pytest

from repro.device.cell import CellArray
from repro.device.faults import FaultMap
from repro.errors import DeviceError
from repro.params.reram import ReRAMDeviceParams


@pytest.fixture
def ideal_array() -> CellArray:
    """8×8 array with no stochastic effects (rng=None)."""
    return CellArray(8, 8)


class TestProgramming:
    def test_initial_state_is_hrs(self, ideal_array):
        dev = ideal_array.device
        assert np.allclose(ideal_array.conductances(), dev.g_off)

    def test_program_full_array(self, ideal_array):
        levels = np.arange(64).reshape(8, 8) % 16
        ideal_array.program_levels(levels)
        assert np.array_equal(ideal_array.levels, levels)

    def test_ideal_conductance_values(self, ideal_array):
        dev = ideal_array.device
        levels = np.full((8, 8), dev.mlc_levels - 1)
        ideal_array.program_levels(levels)
        assert np.allclose(ideal_array.conductances(), dev.g_on)

    def test_program_region_leaves_rest(self, ideal_array):
        region = np.full((2, 3), 5)
        ideal_array.program_region(1, 2, region)
        levels = ideal_array.levels
        assert np.all(levels[1:3, 2:5] == 5)
        assert levels.sum() == 5 * 6  # everything else is 0

    def test_region_rejects_float_levels(self, ideal_array):
        # Every writer stores integer levels, so the count path (the
        # levels) and the conductance readers cannot disagree.
        with pytest.raises(DeviceError, match="integers"):
            ideal_array.program_region(0, 0, np.array([[1.5, 2.0]]))
        assert not ideal_array.levels.any()
        assert ideal_array.on_lattice

    def test_region_out_of_bounds(self, ideal_array):
        with pytest.raises(DeviceError):
            ideal_array.program_region(7, 7, np.full((2, 2), 1))

    def test_bad_level_range(self, ideal_array):
        with pytest.raises(DeviceError):
            ideal_array.program_levels(np.full((8, 8), 16))
        with pytest.raises(DeviceError):
            ideal_array.program_levels(np.full((8, 8), -1))

    def test_non_integer_levels_rejected(self, ideal_array):
        with pytest.raises(DeviceError):
            ideal_array.program_levels(np.full((8, 8), 1.5))

    def test_shape_mismatch_rejected(self, ideal_array):
        with pytest.raises(DeviceError):
            ideal_array.program_levels(np.zeros((4, 4), dtype=int))


class TestVariationAndNoise:
    def test_programming_variation_applied(self, rng):
        arr = CellArray(16, 16, rng=rng)
        levels = np.full((16, 16), 8)
        arr.program_levels(levels)
        g = arr.conductances()
        ideal = arr.device.conductance_for_level(8)
        assert not np.allclose(g, ideal)  # perturbed
        assert np.abs(g / ideal - 1.0).max() < 4 * arr.device.programming_sigma

    def test_variation_is_write_time_not_read_time(self, rng):
        arr = CellArray(8, 8, rng=rng)
        arr.program_levels(np.full((8, 8), 4))
        g1 = arr.conductances(with_read_noise=False)
        g2 = arr.conductances(with_read_noise=False)
        assert np.array_equal(g1, g2)

    def test_read_noise_differs_per_read(self, rng):
        arr = CellArray(8, 8, rng=rng)
        arr.program_levels(np.full((8, 8), 4))
        g1 = arr.conductances(with_read_noise=True)
        g2 = arr.conductances(with_read_noise=True)
        assert not np.array_equal(g1, g2)

    def test_no_rng_means_ideal(self):
        arr = CellArray(8, 8, rng=None)
        arr.program_levels(np.full((8, 8), 4))
        ideal = arr.device.conductance_for_level(4)
        assert np.allclose(arr.conductances(with_read_noise=True), ideal)


class TestBitlineCurrents:
    def test_kirchhoff_sum(self, ideal_array):
        levels = np.eye(8, dtype=np.int64) * 15
        ideal_array.program_levels(levels)
        v = np.ones(8) * 0.2
        currents = ideal_array.bitline_currents(v)
        dev = ideal_array.device
        expected = 0.2 * (dev.g_on + 7 * dev.g_off)
        assert np.allclose(currents, expected)

    def test_batched_inputs(self, ideal_array):
        levels = np.full((8, 8), 3)
        ideal_array.program_levels(levels)
        v = np.ones((5, 8)) * 0.1
        out = ideal_array.bitline_currents(v)
        assert out.shape == (5, 8)
        assert np.allclose(out, out[0])

    def test_zero_voltage_zero_current(self, ideal_array):
        ideal_array.program_levels(np.full((8, 8), 15))
        assert np.allclose(
            ideal_array.bitline_currents(np.zeros(8)), 0.0
        )

    def test_wrong_vector_length(self, ideal_array):
        with pytest.raises(DeviceError):
            ideal_array.bitline_currents(np.ones(9))

    def test_superposition(self, ideal_array):
        rng = np.random.default_rng(0)
        ideal_array.program_levels(rng.integers(0, 16, (8, 8)))
        v1 = rng.random(8)
        v2 = rng.random(8)
        i1 = ideal_array.bitline_currents(v1)
        i2 = ideal_array.bitline_currents(v2)
        i12 = ideal_array.bitline_currents(v1 + v2)
        assert np.allclose(i1 + i2, i12)


class TestFaultIntegration:
    def test_stuck_faults_override_programming(self, rng):
        faults = FaultMap.none(8, 8)
        faults.stuck_hrs[0, 0] = True
        faults.stuck_lrs[7, 7] = True
        arr = CellArray(8, 8, fault_map=faults)
        arr.program_levels(np.full((8, 8), 8))
        g = arr.conductances()
        assert g[0, 0] == pytest.approx(arr.device.g_off)
        assert g[7, 7] == pytest.approx(arr.device.g_on)

    def test_endurance_tracked_per_program(self):
        arr = CellArray(4, 4, track_endurance=True)
        arr.program_levels(np.zeros((4, 4), dtype=np.int64))
        arr.program_region(0, 0, np.ones((2, 2), dtype=np.int64))
        assert arr.endurance.max_writes == 2
        assert arr.endurance.total_writes == 16 + 4


class TestValidation:
    def test_dimensions(self):
        with pytest.raises(DeviceError):
            CellArray(0, 8)

    def test_custom_device(self):
        dev = ReRAMDeviceParams(mlc_bits=2)
        arr = CellArray(4, 4, device=dev)
        with pytest.raises(DeviceError):
            arr.program_levels(np.full((4, 4), 4))  # only 4 levels
