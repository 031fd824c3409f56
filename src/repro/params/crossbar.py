"""Full-function (FF) mat compute parameters.

Section V-A: each FF mat is a 256×256 crossbar with eight 6-bit
reconfigurable sense amplifiers; cells hold 4-bit MLC weights in
computation mode and single-level bits in memory mode; input voltages
have 8 levels (3 bits) in computation mode and 2 levels in memory mode.
With the input-and-synapse composing scheme, inputs/outputs are 6-bit
dynamic fixed point and weights are 8-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.params.reram import ReRAMDeviceParams, PT_TIO2_DEVICE
from repro.units import ns, pJ


@dataclass(frozen=True)
class CrossbarParams:
    """Compute-mode configuration of one FF mat.

    Attributes
    ----------
    rows, cols:
        Crossbar dimensions (wordlines × bitlines).
    input_bits:
        Precision of one analog input step (Pin/2 in the composing
        scheme): the wordline drivers can produce ``2**input_bits``
        voltage levels.
    cell_bits:
        MLC bits per cell used as a synapse (Pw/2 under composing).
    output_bits:
        Full precision of the reconfigurable SA (Po).
    sense_amps:
        Number of reconfigurable SAs shared by the bitlines of a mat;
        a full 256-column readout is serialised over
        ``cols / sense_amps`` SA cycles.
    compose_inputs, compose_weights:
        Whether the input/synapse composing scheme is enabled
        (two 3-bit input phases; weight hi/lo parts in adjacent
        bitlines).
    t_mvm:
        Latency of one analog matrix-vector multiplication phase
        (drive wordlines + settle + sense one SA batch).
    t_sa:
        Latency of one sense-amplifier conversion at full precision.
    e_mvm_array:
        Energy dissipated in the array for one full-array MVM phase.
    e_driver_per_row:
        Energy of one multi-level wordline driver event.
    e_sa_conversion:
        Energy of one SA conversion at full output precision.
    e_sub_sigmoid:
        Energy of the analog subtraction + sigmoid unit per output.
    """

    rows: int = 256
    cols: int = 256
    input_bits: int = 3
    cell_bits: int = 4
    output_bits: int = 6
    sense_amps: int = 8
    compose_inputs: bool = True
    compose_weights: bool = True
    t_mvm: float = 10.0 * ns
    t_sa: float = 5.0 * ns
    e_mvm_array: float = 800.0 * pJ
    e_driver_per_row: float = 0.5 * pJ
    e_sa_conversion: float = 2.0 * pJ
    e_sub_sigmoid: float = 0.3 * pJ
    device: ReRAMDeviceParams = PT_TIO2_DEVICE
    #: Stuck-at fault rates sampled into a fresh ``FaultMap.random``
    #: per crossbar array (from the array's seeded rng) when no
    #: explicit map is supplied.  Zero (the default) disables
    #: injection.
    fault_rate_hrs: float = 0.0
    fault_rate_lrs: float = 0.0

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("crossbar dimensions must be positive")
        if (
            self.fault_rate_hrs < 0
            or self.fault_rate_lrs < 0
            or self.fault_rate_hrs + self.fault_rate_lrs > 1
        ):
            raise ConfigurationError(
                "fault rates must be non-negative and sum <= 1"
            )
        if self.sense_amps < 1 or self.cols % self.sense_amps != 0:
            raise ConfigurationError(
                "cols must be a positive multiple of sense_amps"
            )
        if self.input_bits < 1 or self.output_bits < 1:
            raise ConfigurationError("bit widths must be positive")
        if self.cell_bits != self.device.mlc_bits:
            raise ConfigurationError(
                "cell_bits must match the device MLC capability"
            )

    @property
    def input_levels(self) -> int:
        """Voltage levels the wordline drivers can generate."""
        return 1 << self.input_bits

    @property
    def effective_input_bits(self) -> int:
        """Input precision after composing (Pin)."""
        return self.input_bits * (2 if self.compose_inputs else 1)

    @property
    def effective_weight_bits(self) -> int:
        """Synaptic weight precision after composing (Pw)."""
        return self.cell_bits * (2 if self.compose_weights else 1)

    @property
    def weight_columns_per_synapse(self) -> int:
        """Physical bitlines consumed per logical synapse column.

        Composed weights store the high-bit and low-bit halves in
        adjacent bitlines of the same array.
        """
        return 2 if self.compose_weights else 1

    @property
    def logical_cols(self) -> int:
        """Logical synapse columns available per crossbar."""
        return self.cols // self.weight_columns_per_synapse

    @property
    def mvm_phases(self) -> int:
        """Sequential analog phases per composed MVM.

        The composing scheme evaluates the HH, HL, and LH partial
        products sequentially (the LL part falls entirely below the
        Po-bit output window and is skipped); an uncomposed MVM needs a
        single phase.
        """
        if self.compose_inputs and self.compose_weights:
            return 3
        if self.compose_inputs or self.compose_weights:
            return 2
        return 1

    @property
    def sa_batches(self) -> int:
        """SA readout batches needed to convert all columns once."""
        return self.cols // self.sense_amps

    @property
    def t_full_mvm(self) -> float:
        """Latency of a full composed MVM over one mat (seconds)."""
        per_phase = self.t_mvm + self.sa_batches * self.t_sa
        return self.mvm_phases * per_phase

    @property
    def e_full_mvm(self) -> float:
        """Energy of a full composed MVM over one mat (joules)."""
        return self.e_mvm_active(1.0, 1.0)

    def e_mvm_active(self, row_frac: float, col_frac: float) -> float:
        """Energy of one composed MVM with partial array activity.

        Sparse mappings drive only the occupied wordlines and sense
        only the occupied bitlines (the decoder gates idle lines), so
        driver energy scales with active rows, SA/subtraction energy
        with active columns, and the array's dot-product current with
        the active-cell fraction.
        """
        row_frac = min(max(row_frac, 0.0), 1.0)
        col_frac = min(max(col_frac, 0.0), 1.0)
        per_phase = (
            self.e_mvm_array * row_frac * col_frac
            + self.rows * row_frac * self.e_driver_per_row
            + self.cols * col_frac * self.e_sa_conversion
            + self.logical_cols * col_frac * self.e_sub_sigmoid
        )
        return self.mvm_phases * per_phase

    @property
    def macs_per_mvm(self) -> int:
        """Logical multiply-accumulates performed by one composed MVM."""
        return self.rows * self.logical_cols


#: Defaults matching the paper's practical technology assumptions.
DEFAULT_CROSSBAR = CrossbarParams()
