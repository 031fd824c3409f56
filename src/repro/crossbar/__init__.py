"""ReRAM crossbar arrays and PRIME's modified peripheral circuits.

The modules mirror the blocks of Figure 4:

* :mod:`repro.crossbar.array` — one 256×256 crossbar usable as plain
  memory (SLC) or as a synaptic array (MLC), built on
  :class:`repro.device.CellArray`.
* :mod:`repro.crossbar.drivers` — wordline decoder/driver with
  multi-level voltage sources and input latch (block A).
* :mod:`repro.crossbar.pair` — differential positive/negative crossbar
  pair with the analog subtraction unit of the column multiplexer
  (block B).
* :mod:`repro.crossbar.sense` — the Po-bit reconfigurable sense
  amplifier with counter and precision-control register/adder
  (block C).
* :mod:`repro.crossbar.functional_units` — sigmoid, ReLU, and 4:1
  max-pooling units (blocks B/C).
* :mod:`repro.crossbar.engine` — the composed matrix-vector-multiply
  engine that sequences drivers, arrays, subtraction, SA, and the
  precision adder into one signed digital MVM.
* :mod:`repro.crossbar.layer` — one mapped weight layer as PRIME
  programs and fires it: the grid of programmed engines, its weight
  format and frozen calibration, its state token, the per-engine walk
  and the firing accounting the compiled plan reads.
"""

from repro.crossbar.array import CrossbarArray
from repro.crossbar.drivers import WordlineDriver
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import ReconfigurableSenseAmp
from repro.crossbar.functional_units import (
    SigmoidUnit,
    ReLUUnit,
    MaxPool4Unit,
)
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer

__all__ = [
    "CrossbarArray",
    "WordlineDriver",
    "DifferentialPair",
    "ReconfigurableSenseAmp",
    "SigmoidUnit",
    "ReLUUnit",
    "MaxPool4Unit",
    "CrossbarMVMEngine",
    "ProgrammedLayer",
]
