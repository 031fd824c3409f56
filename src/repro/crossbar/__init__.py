"""ReRAM crossbar arrays and PRIME's modified peripheral circuits.

The modules mirror the blocks of Figure 4:

* :mod:`repro.crossbar.pair` — differential positive/negative crossbar
  pair, two :class:`repro.device.CellArray` halves read through the
  analog subtraction unit of the column multiplexer (block B).
* :mod:`repro.crossbar.sense` — the Po-bit reconfigurable sense
  amplifier's transfer function and each partial product's window in
  it (block C).
* :mod:`repro.crossbar.functional_units` — sigmoid, ReLU, and 4:1
  max-pooling units (blocks B/C).
* :mod:`repro.crossbar.engine` — the composed matrix-vector-multiply
  engine for one mat pair: it splits each 6-bit input into two 3-bit
  wordline phases (the wordline DAC codes, block A), reads the pair,
  and digitises and aligns the partial products into one signed
  digital MVM.
* :mod:`repro.crossbar.layer` — one mapped weight layer as PRIME
  programs and fires it: the grid of programmed engines, its weight
  format and frozen calibration, its state token, the per-engine walk
  and the firing accounting the compiled plan reads.

A mat's memory mode (single-level bits addressed by row) lives in
:mod:`repro.memory.mat`.
"""

from repro.crossbar.pair import DifferentialPair
from repro.crossbar.functional_units import (
    SigmoidUnit,
    ReLUUnit,
    MaxPool4Unit,
)
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer

__all__ = [
    "DifferentialPair",
    "SigmoidUnit",
    "ReLUUnit",
    "MaxPool4Unit",
    "CrossbarMVMEngine",
    "ProgrammedLayer",
]
