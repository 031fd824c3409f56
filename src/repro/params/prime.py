"""Top-level PRIME system configuration.

Bundles the crossbar, memory-organisation, and timing parameters with
the PRIME-specific knobs (buffer behaviour, inter-bank link, morphing
costs) consumed by the compiler and executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.params.memory import (
    MemoryOrganization,
    MemoryTiming,
    DEFAULT_ORGANIZATION,
    DEFAULT_TIMING,
)
from repro.resilience.policy import ResiliencePolicy, DEFAULT_RESILIENCE
from repro.units import ns, pJ


@dataclass(frozen=True)
class PrimeConfig:
    """Everything the PRIME compiler/executor needs to know.

    Attributes
    ----------
    crossbar:
        Compute-mode parameters of one FF mat.
    organization, timing:
        Main-memory geometry and timing (Table IV).
    buffer_port_bandwidth:
        Bytes/second of the private port between the Buffer subarray
        and the FF subarrays (does not contend with Mem-subarray
        traffic, so CPU accesses proceed in parallel).
    interbank_bandwidth:
        Bytes/second of the shared internal bus used for inter-bank
        communication when a large NN is pipelined across banks
        (RowClone-style bulk transfer).
    e_interbank_per_byte:
        Energy per byte moved between banks.
    t_reconfig:
        Latency of switching one FF subarray between memory and
        computation modes (peripheral reconfiguration only; data
        migration and weight programming are charged separately).
    t_buffer_access:
        Latency of one Buffer-subarray row access over the private
        port.
    """

    crossbar: CrossbarParams = DEFAULT_CROSSBAR
    organization: MemoryOrganization = DEFAULT_ORGANIZATION
    timing: MemoryTiming = DEFAULT_TIMING
    buffer_port_bandwidth: float = 64.0e9
    interbank_bandwidth: float = 34.1e9
    e_interbank_per_byte: float = 5.0 * pJ
    t_reconfig: float = 100.0 * ns
    t_buffer_access: float = 5.0 * ns
    #: Fault-tolerance knobs: program-and-verify, column/pair sparing,
    #: zero-masking.  The default leaves resilience off entirely.
    resilience: ResiliencePolicy = DEFAULT_RESILIENCE
    field_validation: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        if not self.field_validation:
            return
        if self.buffer_port_bandwidth <= 0:
            raise ConfigurationError("buffer_port_bandwidth must be positive")
        if self.interbank_bandwidth <= 0:
            raise ConfigurationError("interbank_bandwidth must be positive")
        if self.crossbar.rows != self.organization.mat_rows:
            raise ConfigurationError(
                "crossbar rows must match the mat geometry"
            )
        if self.crossbar.cols != self.organization.mat_cols:
            raise ConfigurationError(
                "crossbar cols must match the mat geometry"
            )
        if self.resilience.spare_columns >= self.crossbar.logical_cols:
            raise ConfigurationError(
                "spare_columns must leave at least one usable column"
            )
        if self.resilience.spare_pairs_per_bank >= self.pairs_per_bank:
            raise ConfigurationError(
                "spare_pairs_per_bank must leave at least one usable pair"
            )

    @property
    def ff_mats_per_bank(self) -> int:
        """FF mats available to one bank's in-memory NPU."""
        return self.organization.ff_mats_per_bank

    @property
    def total_ff_mats(self) -> int:
        """FF mats across the whole memory system."""
        return self.ff_mats_per_bank * self.organization.total_banks

    @property
    def pairs_per_bank(self) -> int:
        """Differential mat pairs (compute engines) per bank."""
        return self.ff_mats_per_bank // 2

    @property
    def synapses_per_pair(self) -> int:
        """Composed (8-bit) synapses held by one differential pair."""
        return self.crossbar.rows * self.crossbar.logical_cols

    @property
    def max_network_synapses(self) -> int:
        """Largest NN mappable when every bank is used (§IV-B1).

        Counted in composed 8-bit synapses; the default geometry gives
        ~2.7e8, matching the paper's headline capacity (vs TrueNorth's
        1.4e7) and leaving room for VGG-D's 1.4e8 synapses.
        """
        total_pairs = self.pairs_per_bank * self.organization.total_banks
        return total_pairs * self.synapses_per_pair


DEFAULT_PRIME_CONFIG = PrimeConfig()
