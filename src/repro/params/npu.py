"""Neural processing unit parameters (Table V).

The comparison NPU is the parallel DianNao-style design: a 16×16
multiplier array feeding a 256-1 adder tree, with 2 KB input/output
buffers and a 32 KB weight buffer.  Two system integrations are
modelled:

* ``pNPU-co``  — the NPU as a co-processor on the off-chip memory bus.
* ``pNPU-pim`` — the same NPU 3D-stacked on each memory bank
  (×1 uses a single NPU, ×64 stacks one per bank).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GHz, KB, pJ


@dataclass(frozen=True)
class NpuParams:
    """Analytical model parameters for the DianNao-style NPU.

    Attributes
    ----------
    multiplier_rows, multiplier_cols:
        Dimensions of the multiplier array (16×16 ⇒ 256 MACs/cycle).
    in_buffer_bytes, out_buffer_bytes, weight_buffer_bytes:
        NBin / NBout / SB sizes from Table V.
    memory_bandwidth:
        Bytes/second the NPU can stream from memory.  The co-processor
        sees the off-chip bus; the PIM variant sees the much wider
        internal (per-bank TSV) bandwidth.
    e_memory_per_byte:
        Energy per byte fetched from memory (off-chip I/O + DRAM for
        the co-processor; stacked-DRAM access only for PIM).
    stacked:
        True for the 3D-stacked PIM variant.
    """

    name: str = "pNPU-co"
    clock_hz: float = 1.0 * GHz
    multiplier_rows: int = 16
    multiplier_cols: int = 16
    in_buffer_bytes: int = 2 * KB
    out_buffer_bytes: int = 2 * KB
    weight_buffer_bytes: int = 32 * KB
    memory_bandwidth: float = 8.528e9  # 533 MHz DDR x 8 B
    e_mac: float = 1.0 * pJ
    e_buffer_per_byte: float = 1.0 * pJ
    e_memory_per_byte: float = 70.0 * pJ
    stacked: bool = False

    def __post_init__(self) -> None:
        if self.multiplier_rows < 1 or self.multiplier_cols < 1:
            raise ConfigurationError("multiplier array must be non-empty")
        if self.memory_bandwidth <= 0:
            raise ConfigurationError("memory bandwidth must be positive")

    @property
    def macs_per_cycle(self) -> int:
        """MACs retired per cycle by the multiplier array + adder tree."""
        return self.multiplier_rows * self.multiplier_cols

    @property
    def peak_macs_per_s(self) -> float:
        """Peak MAC throughput of one NPU."""
        return self.macs_per_cycle * self.clock_hz


#: Table V co-processor configuration: off-chip bus, full I/O energy.
PNPU_CO = NpuParams()

#: 3D-stacked PIM configuration: one NPU per bank sees the internal
#: bank bandwidth and skips the off-chip I/O energy (~16× the bus
#: bandwidth, ~7× lower memory energy per byte).
PNPU_PIM = NpuParams(
    name="pNPU-pim",
    memory_bandwidth=136.4e9,
    e_memory_per_byte=10.0 * pJ,
    stacked=True,
)
