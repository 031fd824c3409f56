"""One physical ReRAM crossbar array.

A :class:`CrossbarArray` is the morphable unit of PRIME: in *memory
mode* its cells store single-level bits addressed by row; in
*computation mode* they store MLC synapse levels and the array performs
analog matrix-vector multiplication.  The class keeps the electrical
model in :class:`repro.device.CellArray` and adds the mode discipline,
bit packing, and current-domain arithmetic.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.errors import CrossbarError
from repro.device import CellArray, FaultMap
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import ProgramReport


class ArrayMode(Enum):
    """Operating mode of a crossbar array."""

    MEMORY = "memory"
    COMPUTE = "compute"


class CrossbarArray:
    """A rows×cols ReRAM crossbar with memory and compute modes."""

    def __init__(
        self,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
        fault_map: FaultMap | None = None,
        track_endurance: bool = False,
    ) -> None:
        self.params = params
        if fault_map is None:
            fault_map = self._configured_fault_map(params, rng)
        self.cells = CellArray(
            params.rows,
            params.cols,
            device=params.device,
            rng=rng,
            fault_map=fault_map,
            track_endurance=track_endurance,
        )
        self.mode = ArrayMode.MEMORY

    @staticmethod
    def _configured_fault_map(
        params: CrossbarParams, rng: np.random.Generator | None
    ) -> FaultMap | None:
        """Sample a fault map from the configured stuck-at rates, so
        call sites get fault injection end-to-end without
        hand-constructing maps."""
        rate_hrs, rate_lrs = params.fault_rate_hrs, params.fault_rate_lrs
        if rate_hrs <= 0.0 and rate_lrs <= 0.0:
            return None
        if rng is None:
            raise CrossbarError(
                "fault-rate injection needs a seeded rng; pass one to "
                "the crossbar or clear the fault rates"
            )
        return FaultMap.random(
            params.rows, params.cols, rate_hrs, rate_lrs, rng
        )

    # -- mode discipline ------------------------------------------------

    def set_mode(self, mode: ArrayMode) -> None:
        """Switch modes.  Contents are invalidated by the caller's
        migration protocol (the PRIME controller), not here."""
        self.mode = mode

    def _require(self, mode: ArrayMode, op: str) -> None:
        if self.mode is not mode:
            raise CrossbarError(
                f"{op} requires {mode.value} mode, array is in "
                f"{self.mode.value} mode"
            )

    # -- memory mode ------------------------------------------------------

    def write_row_bits(self, row: int, bits: np.ndarray) -> None:
        """Store one row of single-level bits (memory mode)."""
        self._require(ArrayMode.MEMORY, "write_row_bits")
        bits = np.asarray(bits)
        if bits.shape != (self.params.cols,):
            raise CrossbarError(
                f"row must have {self.params.cols} bits, got {bits.shape}"
            )
        if not np.all((bits == 0) | (bits == 1)):
            raise CrossbarError("bits must be 0/1")
        levels = bits.astype(np.int64) * (self.params.device.mlc_levels - 1)
        self.cells.program_region(row, 0, levels.reshape(1, -1))

    def read_row_bits(self, row: int) -> np.ndarray:
        """Read one row of bits back via a threshold sense (memory mode)."""
        self._require(ArrayMode.MEMORY, "read_row_bits")
        if not 0 <= row < self.params.rows:
            raise CrossbarError(f"row {row} out of range")
        dev = self.params.device
        g = self.cells.conductances(with_read_noise=True)[row]
        threshold = 0.5 * (dev.g_on + dev.g_off)
        return (g > threshold).astype(np.uint8)

    # -- compute mode -------------------------------------------------------

    def _checked_compute_inputs(
        self, input_levels: np.ndarray, op: str
    ) -> np.ndarray:
        """Shared compute-mode + input-range validation for MVM entry
        points."""
        self._require(ArrayMode.COMPUTE, op)
        input_levels = np.asarray(input_levels)
        if input_levels.shape[-1] != self.params.rows:
            raise CrossbarError(
                f"expected {self.params.rows} inputs, got "
                f"{input_levels.shape[-1]}"
            )
        if np.any(input_levels < 0) or np.any(
            input_levels >= self.params.input_levels
        ):
            raise CrossbarError(
                f"input levels outside [0, {self.params.input_levels})"
            )
        return input_levels

    def _checked_levels(self, levels: np.ndarray, op: str) -> np.ndarray:
        """Shared compute-mode + shape validation for the programming
        entry points.  Integer levels pass through in their own (narrow)
        dtype; the cells range-check them and store int16."""
        self._require(ArrayMode.COMPUTE, op)
        levels = np.asarray(levels)
        if levels.shape != (self.params.rows, self.params.cols):
            raise CrossbarError(
                f"levels must be {(self.params.rows, self.params.cols)}, "
                f"got {levels.shape}"
            )
        if not np.issubdtype(levels.dtype, np.integer):
            levels = levels.astype(np.int64)
        return levels

    def program_weight_levels(
        self,
        levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
        verify_mask: np.ndarray | None = None,
    ) -> ProgramReport | None:
        """Program the full array with MLC synapse levels (compute mode).

        With ``verify`` set, the cells run their closed-loop
        write-and-verify pass (optionally restricted to ``verify_mask``)
        and a :class:`ProgramReport` is returned.
        """
        levels = self._checked_levels(levels, "program_weight_levels")
        return self.cells.program_levels(
            levels, verify=verify, verify_mask=verify_mask
        )

    def program_masked_weight_levels(
        self,
        mask: np.ndarray,
        levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
    ) -> ProgramReport | None:
        """Program a subset of cells with synapse levels (compute mode)."""
        levels = self._checked_levels(
            levels, "program_masked_weight_levels"
        )
        return self.cells.program_masked(mask, levels, verify=verify)

    def analog_mvm_counts(
        self, input_levels: np.ndarray, with_noise: bool = True
    ) -> np.ndarray:
        """Analog MVM returning *count-domain* bitline values.

        ``input_levels`` are integers in [0, 2**input_bits) — the
        wordline driver's DAC codes.  The returned float array is the
        bitline current divided by the unit current
        ``v_step * g_step``, i.e. an analog estimate of
        ``sum_i a_i * w_i`` plus a baseline term from the HRS offset
        conductance which the differential pair cancels.

        The baseline is returned *included* (as in the real analog
        domain); use :meth:`baseline_counts` to remove it for a single
        array, or subtract a paired array's counts.
        """
        input_levels = self._checked_compute_inputs(
            input_levels, "analog_mvm_counts"
        )
        dev = self.params.device
        v_step = dev.v_read / (self.params.input_levels - 1)
        g_step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        voltages = input_levels.astype(np.float64) * v_step
        currents = self.cells.bitline_currents(
            voltages, with_read_noise=with_noise
        )
        return currents / (v_step * g_step)

    def baseline_counts(self, input_levels: np.ndarray) -> np.ndarray:
        """Count-domain baseline from the HRS offset conductance.

        Equals ``g_off/g_step * sum_i a_i`` for every column; exact
        (no noise), as produced by a reference column in real designs.
        """
        dev = self.params.device
        g_step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        total = np.asarray(input_levels, dtype=np.float64).sum(axis=-1)
        baseline = (dev.g_off / g_step) * total
        return np.broadcast_to(
            np.expand_dims(baseline, -1),
            np.shape(input_levels)[:-1] + (self.params.cols,),
        ).copy()
