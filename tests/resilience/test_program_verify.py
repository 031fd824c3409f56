"""Closed-loop program-and-verify at the cell and pair level."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.device.cell import CellArray
from repro.device.faults import FaultMap
from repro.errors import ConfigurationError
from repro.params.reram import PT_TIO2_DEVICE
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.crossbar.pair import DifferentialPair
from repro.params.crossbar import CrossbarParams
from repro.resilience import ResiliencePolicy

pytestmark = pytest.mark.resilience

VERIFY = ResiliencePolicy(verify_writes=True)
NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _levels(rng, rows=8, cols=8):
    return rng.integers(0, PT_TIO2_DEVICE.mlc_levels, size=(rows, cols))


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(tolerance_steps=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(retry_sigma_scale=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(spare_columns=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(column_error_limit=-2.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(
                column_error_limit=500.0, mask_error_limit=100.0
            )


class TestProgramVerify:
    def test_noop_on_ideal_array(self, rng):
        """On a variation-free array the first readback passes and the
        verify pass changes nothing — not even the RNG stream."""
        levels = _levels(rng)
        open_loop = CellArray(8, 8, device=NOISE_FREE)
        open_loop.program_levels(levels)
        verified = CellArray(8, 8, device=NOISE_FREE)
        report = verified.program_levels(levels, verify=VERIFY)
        assert report.clean
        assert report.retry_rounds == 0
        assert report.programmed_cells == 64
        np.testing.assert_array_equal(
            verified.conductances(), open_loop.conductances()
        )

    def test_consumes_no_rng_when_in_tolerance(self, rng):
        """Same seed with and without verify: identical conductances
        when no retry fires (sigma 0 device, seeded rng)."""
        levels = _levels(rng)
        a = CellArray(8, 8, device=NOISE_FREE, rng=np.random.default_rng(3))
        a.program_levels(levels)
        b = CellArray(8, 8, device=NOISE_FREE, rng=np.random.default_rng(3))
        report = b.program_levels(levels, verify=VERIFY)
        assert report.clean
        np.testing.assert_array_equal(a.conductances(), b.conductances())

    def test_retries_pull_cells_into_tolerance(self, rng):
        """A high-variation device needs retries; the tightening loop
        lands every cell inside tolerance."""
        noisy = dataclasses.replace(PT_TIO2_DEVICE, programming_sigma=0.15)
        arr = CellArray(
            16, 16, device=noisy, rng=np.random.default_rng(11)
        )
        policy = ResiliencePolicy(verify_writes=True, max_retries=8)
        report = arr.program_levels(_levels(rng, 16, 16), verify=policy)
        assert report.retried_cells > 0
        assert report.failed_count == 0
        dev = arr.device
        step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        ideal = dev.g_off + arr.levels * step
        assert np.all(
            np.abs(arr.conductances() - ideal)
            <= policy.tolerance_steps * step + 1e-12
        )

    def test_gives_up_on_stuck_cells_and_counts(self, rng):
        fm = FaultMap.none(8, 8)
        fm.stuck_hrs[2, 3] = True
        arr = CellArray(
            8, 8, device=NOISE_FREE, fault_map=fm,
            rng=np.random.default_rng(5),
        )
        levels = np.full((8, 8), 9)
        telemetry.enable()
        report = arr.program_levels(levels, verify=VERIFY)
        assert report.failed[2, 3]
        assert report.failed_count == 1
        assert not report.clean
        # Each retry round re-pulsed only the stuck cell.
        assert report.retried_cells == VERIFY.max_retries
        assert telemetry.counter_total("resilience.program.retry") == (
            VERIFY.max_retries
        )
        assert telemetry.counter_total("resilience.program.giveup") == 1

    def test_retry_writes_hit_endurance(self, rng):
        noisy = dataclasses.replace(PT_TIO2_DEVICE, programming_sigma=0.15)
        arr = CellArray(
            16, 16, device=noisy, rng=np.random.default_rng(11),
            track_endurance=True,
        )
        policy = ResiliencePolicy(verify_writes=True, max_retries=8)
        report = arr.program_levels(_levels(rng, 16, 16), verify=policy)
        assert report.retried_cells > 0
        # The base write counts once everywhere; retried cells more.
        assert arr.endurance.max_writes >= 2
        assert arr.endurance.total_writes == 256 + report.retried_cells

    def test_program_masked_region(self):
        arr = CellArray(8, 8, device=NOISE_FREE)
        mask = np.zeros((8, 8), dtype=bool)
        mask[1, 1] = mask[4, 6] = True
        levels = np.full((8, 8), 7)
        report = arr.program_masked(mask, levels, verify=VERIFY)
        assert report.clean
        assert report.programmed_cells == 2
        assert arr.levels[1, 1] == 7 and arr.levels[4, 6] == 7
        assert arr.levels[0, 0] == 0


class TestDifferentialCompensation:
    def _pair(self, pos_faults, neg_faults):
        params = CrossbarParams(
            rows=16, cols=16, sense_amps=4, device=NOISE_FREE
        )
        pair = DifferentialPair(
            params, fault_maps=(pos_faults, neg_faults)
        )
        return pair

    def test_stuck_lrs_cancelled_by_complement(self):
        """A positive cell frozen at LRS is cancelled by re-targeting
        the healthy negative complement; the residual vanishes."""
        fm = FaultMap.none(16, 16)
        fm.stuck_lrs[3, 4] = True
        pair = self._pair(fm, FaultMap.none(16, 16))
        desired = np.zeros((16, 16), dtype=np.int64)
        desired[3, 4] = 5  # stuck at 15, wants +5 -> neg goes to 10
        report = pair.program_signed_levels(desired, verify=VERIFY)
        assert report.compensated_cells == 1
        assert report.residual.max() < 1e-9
        assert int(pair.negative.levels[3, 4]) == 10

    def test_doubly_stuck_cell_keeps_residual(self):
        """With both complements frozen the difference is wrong and the
        residual records it for column-health accounting."""
        pos = FaultMap.none(16, 16)
        neg = FaultMap.none(16, 16)
        pos.stuck_lrs[3, 4] = True
        neg.stuck_hrs[3, 4] = True
        pair = self._pair(pos, neg)
        desired = np.zeros((16, 16), dtype=np.int64)
        report = pair.program_signed_levels(desired, verify=VERIFY)
        # pos reads 15 while both targets were 0: repair via the
        # negative cell fails (also stuck), leaving |15 - 0 - 0|.
        assert report.residual[3, 4] == pytest.approx(15.0)
        assert not report.clean

    def test_clean_pair_reports_clean(self, rng):
        pair = self._pair(None, None)
        desired = rng.integers(-15, 16, size=(16, 16))
        report = pair.program_signed_levels(desired, verify=VERIFY)
        assert report.clean
        assert report.compensated_cells == 0
        assert report.residual.max() < 1e-9


class TestVerifiedRecovery:
    def test_recovery_gives_up_on_no_more_cells_than_deploy(self):
        """A verified drift recovery verifies each engine's programmed
        region, as the deploy did, not the cells no column uses: it
        gives up on no more cells than the deploy."""
        params = CrossbarParams(
            rows=32, cols=32, sense_amps=8,
            fault_rate_hrs=0.02, fault_rate_lrs=0.02,
        )
        rng = np.random.default_rng(17)
        weights = np.random.default_rng(4)
        telemetry.enable()
        engines = []
        for _ in range(3):
            engine = CrossbarMVMEngine(params, rng=rng)
            engine.program(
                weights.integers(-255, 256, (20, 9)), resilience=VERIFY
            )
            engines.append(engine)
        deployed = telemetry.counter_total("resilience.program.giveup")
        layer = ProgrammedLayer([engines], None)
        layer.apply_drift(0.2, np.random.default_rng(3))
        layer.reprogram(VERIFY)
        recovered = (
            telemetry.counter_total("resilience.program.giveup") - deployed
        )
        assert deployed > 0
        assert 0 < recovered <= deployed
