"""Functional ReRAM device models.

* :mod:`repro.device.cell` — vectorised MLC cell-array state:
  program/read conductances with programming variation and read noise.
* :mod:`repro.device.faults` — stuck-at-fault injection.
* :mod:`repro.device.endurance` — per-cell wear accounting against the
  device endurance budget.
"""

from repro.device.cell import CellArray
from repro.device.faults import FaultMap, StuckAtFault
from repro.device.endurance import EnduranceTracker

__all__ = [
    "CellArray",
    "FaultMap",
    "StuckAtFault",
    "EnduranceTracker",
]
