"""Per-cell endurance (wear) accounting.

ReRAM endurance is reported up to 1e12 SET/RESET cycles, which makes
wear a far smaller concern than for PCM, but PRIME reprograms FF mats
each time a new network is deployed and morphs subarrays between modes,
so the library still tracks write counts and can report remaining
lifetime.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceError


class EnduranceTracker:
    """Counts programming events per cell against an endurance budget."""

    def __init__(self, rows: int, cols: int, endurance: float) -> None:
        if rows < 1 or cols < 1:
            raise DeviceError("tracker dimensions must be positive")
        if endurance <= 0:
            raise DeviceError("endurance must be positive")
        self.endurance = float(endurance)
        self._writes = np.zeros((rows, cols), dtype=np.int64)

    def record_writes(self, mask: np.ndarray) -> None:
        """Record one programming event for every True cell in ``mask``."""
        if mask.shape != self._writes.shape:
            raise DeviceError("mask shape mismatch")
        self._writes[mask] += 1

    @property
    def max_writes(self) -> int:
        """The most-worn cell's write count."""
        return int(self._writes.max())

    @property
    def total_writes(self) -> int:
        """Total programming events recorded."""
        return int(self._writes.sum())

    def wear_fraction(self) -> float:
        """Worst-case consumed lifetime fraction, in [0, 1+]."""
        return self.max_writes / self.endurance

    def exhausted_cells(self) -> int:
        """Number of cells past the endurance budget."""
        return int((self._writes >= self.endurance).sum())

    def remaining_reprogram_cycles(self, writes_per_cycle: int = 1) -> float:
        """Full-array reprogramming cycles left for the worst cell."""
        if writes_per_cycle < 1:
            raise DeviceError("writes_per_cycle must be >= 1")
        left = self.endurance - self.max_writes
        return max(left, 0.0) / writes_per_cycle
