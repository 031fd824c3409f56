"""Numeric formats used by PRIME.

* :mod:`repro.precision.dynamic_fixed_point` — the dynamic fixed-point
  format (Courbariaux et al.) the paper adopts for inputs, weights and
  outputs.
* :mod:`repro.precision.composing` — the input-and-synapse composing
  scheme of Section III-D that builds 6-bit inputs from two 3-bit
  signals and 8-bit weights from two 4-bit cells, accumulating the
  HH/HL/LH partial products through the sense amp's windows.
"""

from repro.precision.dynamic_fixed_point import (
    DynamicFixedPoint,
    quantize_tensor,
    quantize_with_bias,
)
from repro.precision.composing import (
    ComposingSpec,
    split_unsigned,
    compose_unsigned,
    composed_dot,
    reference_dot,
)

__all__ = [
    "DynamicFixedPoint",
    "quantize_tensor",
    "quantize_with_bias",
    "ComposingSpec",
    "split_unsigned",
    "compose_unsigned",
    "composed_dot",
    "reference_dot",
]
