"""Stuck-at-fault injection for ReRAM arrays.

Fabricated crossbars contain cells frozen in the low-resistance state
(stuck-at-LRS, reading as maximal conductance) or the high-resistance
state (stuck-at-HRS, reading as minimal conductance).  A
:class:`FaultMap` overlays such defects on a :class:`CellArray` so the
rest of the stack can study accuracy degradation under yield loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import DeviceError
from repro.params.reram import ReRAMDeviceParams


class StuckAtFault(Enum):
    """Fault polarity."""

    STUCK_AT_HRS = "hrs"  # cell frozen at minimum conductance
    STUCK_AT_LRS = "lrs"  # cell frozen at maximum conductance


@dataclass
class FaultMap:
    """Boolean masks of faulty cells for one array."""

    stuck_hrs: np.ndarray
    stuck_lrs: np.ndarray

    def __post_init__(self) -> None:
        if self.stuck_hrs.shape != self.stuck_lrs.shape:
            raise DeviceError("fault masks must share a shape")
        if bool(np.any(self.stuck_hrs & self.stuck_lrs)):
            raise DeviceError("a cell cannot be stuck at both states")

    @classmethod
    def none(cls, rows: int, cols: int) -> "FaultMap":
        """A fault-free map."""
        return cls(
            stuck_hrs=np.zeros((rows, cols), dtype=bool),
            stuck_lrs=np.zeros((rows, cols), dtype=bool),
        )

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        rate_hrs: float,
        rate_lrs: float,
        rng: np.random.Generator,
    ) -> "FaultMap":
        """Sample independent stuck-at faults at the given rates."""
        if rate_hrs < 0 or rate_lrs < 0 or rate_hrs + rate_lrs > 1:
            raise DeviceError("fault rates must be non-negative and sum <= 1")
        draw = rng.random((rows, cols))
        stuck_hrs = draw < rate_hrs
        stuck_lrs = (draw >= rate_hrs) & (draw < rate_hrs + rate_lrs)
        return cls(stuck_hrs=stuck_hrs, stuck_lrs=stuck_lrs)

    @property
    def fault_count(self) -> int:
        """Total number of faulty cells."""
        return int(self.stuck_hrs.sum() + self.stuck_lrs.sum())

    def apply(
        self, conductance: np.ndarray, device: ReRAMDeviceParams
    ) -> np.ndarray:
        """Overlay the faults on a conductance matrix (returns a copy)."""
        if conductance.shape != self.stuck_hrs.shape:
            raise DeviceError(
                f"conductance shape {conductance.shape} != fault map "
                f"shape {self.stuck_hrs.shape}"
            )
        out = conductance.copy()
        out[self.stuck_hrs] = device.g_off
        out[self.stuck_lrs] = device.g_on
        return out
