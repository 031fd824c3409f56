"""Stuck-at-fault injection for ReRAM arrays.

Fabricated crossbars contain cells frozen in the low-resistance state
(stuck-at-LRS, reading as maximal conductance) or the high-resistance
state (stuck-at-HRS, reading as minimal conductance).  A
:class:`FaultMap` overlays such defects on a :class:`CellArray` so the
rest of the stack can study accuracy degradation under yield loss.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import DeviceError
from repro.knobs import env_knob
from repro.params.reram import ReRAMDeviceParams

logger = logging.getLogger("repro.device")

#: Environment knob injecting stuck-at faults into every crossbar that
#: doesn't configure explicit rates: a single rate ("0.01", split
#: evenly between HRS and LRS) or an explicit "hrs,lrs" pair
#: ("0.004,0.006").
FAULT_RATES_ENV = "PRIME_FAULT_RATES"


def env_fault_rates() -> tuple[float, float]:
    """Parse :data:`FAULT_RATES_ENV` into ``(rate_hrs, rate_lrs)``.

    Returns ``(0.0, 0.0)`` when the variable is unset or empty.  An
    unparsable or out-of-range value also yields ``(0.0, 0.0)``, with a
    warning — the knob is read deep inside array construction, where
    raising over a typo would kill a long run halfway through.  Note
    that, like the other ``PRIME_*`` env knobs, the value does not
    enter :mod:`repro.perf` cache keys — clear caches when sweeping it
    out-of-band, or prefer the explicit config fields.
    """
    return env_knob(
        FAULT_RATES_ENV,
        _parse_fault_rates,
        (0.0, 0.0),
        logger,
        "'rate' or 'hrs,lrs', non-negative and summing to <= 1",
        "injecting no faults",
        warned=_WARNED_VALUES,
    )


def _parse_fault_rates(raw: str) -> tuple[float, float]:
    values = [float(p) for p in raw.split(",")]
    if len(values) == 1:
        rate_hrs = rate_lrs = values[0] / 2.0
    elif len(values) == 2:
        rate_hrs, rate_lrs = values
    else:
        raise ValueError(raw)
    if rate_hrs < 0 or rate_lrs < 0 or rate_hrs + rate_lrs > 1:
        raise ValueError(raw)
    return (rate_hrs, rate_lrs)


#: Bad values already warned about — the knob is re-read on every array
#: construction, so one typo would otherwise log hundreds of times.
_WARNED_VALUES: set[str] = set()


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
