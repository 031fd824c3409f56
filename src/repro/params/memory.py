"""ReRAM main-memory organisation and timing (Table IV).

16 GB ReRAM main memory, 533 MHz IO bus, 8 chips per rank, 8 banks per
chip, timing tRCD-tCL-tRP-tWR = 22.5-9.8-0.5-41.4 ns, following the
performance-optimised crossbar ReRAM design of Xu et al. (HPCA'15).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GB, MHz, ns, pJ


@dataclass(frozen=True)
class MemoryTiming:
    """DRAM-style timing parameters of the ReRAM main memory."""

    t_rcd: float = 22.5 * ns
    t_cl: float = 9.8 * ns
    t_rp: float = 0.5 * ns
    t_wr: float = 41.4 * ns
    io_clock_hz: float = 533.0 * MHz

    def __post_init__(self) -> None:
        for name in ("t_rcd", "t_cl", "t_rp", "t_wr"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.io_clock_hz <= 0:
            raise ConfigurationError("io_clock_hz must be positive")

    @property
    def row_read_latency(self) -> float:
        """Activate + column read latency for a row-buffer miss."""
        return self.t_rcd + self.t_cl

    @property
    def row_write_latency(self) -> float:
        """Activate + write-recovery latency for a row write."""
        return self.t_rcd + self.t_wr

    @property
    def row_cycle(self) -> float:
        """Full row cycle: activate, access, precharge."""
        return self.t_rcd + self.t_cl + self.t_rp

    def io_bus_bandwidth(self, bus_bytes: int = 8) -> float:
        """Peak off-chip IO bandwidth in bytes/second (DDR)."""
        return 2.0 * self.io_clock_hz * bus_bytes


@dataclass(frozen=True)
class MemoryOrganization:
    """Physical organisation of the ReRAM main memory.

    The paper uses 8 chips/rank × 8 banks/chip; each bank holds 64
    subarrays of 256×256-cell "mats".  Two subarrays per bank are
    full-function (FF) and one is the Buffer subarray; the remaining 61
    are plain Mem subarrays.

    Note on capacity: Table IV lists 16 GB of ReRAM.  With SLC mats the
    modelled bank geometry (64 subarrays × 128 mats × 8 KB) gives 4 GB
    per rank, so the Table IV system comprises four such ranks;
    computation uses the 64 banks of one rank, exactly as the paper's
    "64 NPUs in total (8 banks × 8 chips)".  ``capacity_bytes`` is
    therefore carried as an independent, system-level figure.
    """

    capacity_bytes: int = 16 * GB
    chips_per_rank: int = 8
    banks_per_chip: int = 8
    subarrays_per_bank: int = 64
    mats_per_subarray: int = 128
    mat_rows: int = 256
    mat_cols: int = 256
    ff_subarrays_per_bank: int = 2
    buffer_subarrays_per_bank: int = 1
    row_buffer_bytes: int = 2048
    # Energy per byte moved at each level of the hierarchy.
    e_offchip_per_byte: float = 70.0 * pJ
    e_gdl_per_byte: float = 2.0 * pJ
    e_buffer_port_per_byte: float = 0.5 * pJ
    e_array_read_per_byte: float = 1.0 * pJ
    e_array_write_per_byte: float = 4.0 * pJ

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        for name in (
            "chips_per_rank",
            "banks_per_chip",
            "subarrays_per_bank",
            "mats_per_subarray",
            "mat_rows",
            "mat_cols",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if (
            self.ff_subarrays_per_bank + self.buffer_subarrays_per_bank
            > self.subarrays_per_bank
        ):
            raise ConfigurationError(
                "FF + Buffer subarrays cannot exceed subarrays per bank"
            )

    @property
    def total_banks(self) -> int:
        """Banks in the memory system (= independent PRIME NPUs)."""
        return self.chips_per_rank * self.banks_per_chip

    @property
    def mat_bits(self) -> int:
        """Single-level-cell bits stored by one mat in memory mode."""
        return self.mat_rows * self.mat_cols

    @property
    def ff_mats_per_bank(self) -> int:
        """FF mats available for computation in one bank."""
        return self.ff_subarrays_per_bank * self.mats_per_subarray


DEFAULT_TIMING = MemoryTiming()
DEFAULT_ORGANIZATION = MemoryOrganization()
