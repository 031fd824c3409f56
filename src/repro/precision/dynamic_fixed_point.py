"""Dynamic fixed-point arithmetic (Courbariaux et al., 2014).

A tensor is represented by signed integers of a fixed bit width plus a
*shared* exponent chosen per tensor (per layer, in practice), so the
format tracks the dynamic range of activations/weights across layers
without per-element exponents.  The paper uses this format for the
Figure 6 precision study and for PRIME's 6-bit inputs/outputs and
8-bit weights.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.errors import PrecisionError


@dataclass(frozen=True)
class DynamicFixedPoint:
    """A dynamic fixed-point format: ``value = integer * 2**exponent``.

    Attributes
    ----------
    bits:
        Total bit width including the sign bit (>= 2 for signed data,
        >= 1 for unsigned).
    exponent:
        Shared power-of-two scale of the least significant bit.
    signed:
        Whether the integer field is two's-complement signed.
    """

    bits: int
    exponent: int
    signed: bool = True

    def __post_init__(self) -> None:
        min_bits = 2 if self.signed else 1
        if self.bits < min_bits:
            raise PrecisionError(
                f"bits must be >= {min_bits} for "
                f"{'signed' if self.signed else 'unsigned'} data"
            )

    @property
    def int_min(self) -> int:
        """Smallest representable integer."""
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def int_max(self) -> int:
        """Largest representable integer."""
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    @property
    def resolution(self) -> float:
        """Real value of one LSB."""
        return 2.0 ** self.exponent

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.int_max * self.resolution

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.int_min * self.resolution

    @classmethod
    def for_data(
        cls, data: np.ndarray, bits: int, signed: bool = True
    ) -> "DynamicFixedPoint":
        """Choose the exponent that covers ``data`` without overflow.

        The exponent is the smallest one whose full-scale range
        contains ``max(|data|)`` — i.e. the dynamic part of "dynamic
        fixed point".
        """
        data = np.asarray(data, dtype=np.float64)
        peak = float(np.max(np.abs(data))) if data.size else 0.0
        fmt = cls(bits=bits, exponent=0, signed=signed)
        magnitude = max(fmt.int_max, 1)
        if peak <= 0.0:
            return cls(bits=bits, exponent=-(bits - 1), signed=signed)
        # Split the logs: the ratio itself can underflow for denormal
        # peaks even though both logs are finite.
        exponent = math.ceil(math.log2(peak) - math.log2(magnitude))
        # Clamp so the LSB stays a normal double (denormal-peak data
        # would otherwise underflow the resolution to zero).
        exponent = max(exponent, -960)
        return cls(bits=bits, exponent=exponent, signed=signed)

    # -- conversions ---------------------------------------------------

    def quantize_int(self, values: np.ndarray, dtype=np.int64) -> np.ndarray:
        """Real values → saturating rounded integers, held in ``dtype``
        (a float dtype holds them exactly while ``2**bits`` fits its
        contiguous-integer range)."""
        values = np.asarray(values, dtype=np.float64)
        q = np.rint(values / self.resolution)
        return np.clip(q, self.int_min, self.int_max).astype(dtype)

    def dequantize(self, integers: np.ndarray) -> np.ndarray:
        """Integers → real values."""
        return np.asarray(integers, dtype=np.float64) * self.resolution

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip real values through the format."""
        return self.dequantize(self.quantize_int(values))

    def quantization_error(self, values: np.ndarray) -> float:
        """RMS error introduced by the format on ``values``."""
        values = np.asarray(values, dtype=np.float64)
        err = values - self.quantize(values)
        return float(np.sqrt(np.mean(err * err))) if err.size else 0.0


#: Float64 elements :func:`quantize_with_bias` quantises per slab.
_QUANTIZE_SLAB = 1 << 16


def quantize_tensor(
    data: np.ndarray, bits: int, signed: bool = True
) -> tuple[np.ndarray, DynamicFixedPoint]:
    """Quantize ``data`` with a per-tensor dynamic exponent.

    Returns the quantized *real* values and the format used (so callers
    can re-quantize activations of matching range).
    """
    fmt = DynamicFixedPoint.for_data(data, bits=bits, signed=signed)
    return fmt.quantize(data), fmt


def quantize_with_bias(
    weight: np.ndarray, bias: np.ndarray, bits: int
) -> tuple[np.ndarray, DynamicFixedPoint]:
    """Quantize a layer's weights with its bias as one extra row.

    Returns the signed integers of ``[weight; bias]`` and the format
    :meth:`DynamicFixedPoint.for_data` picks for that augmented matrix
    — exactly the integers ``fmt.quantize_int`` gives, held in the
    narrowest integer dtype that fits the format.  No augmented copy is
    made: the peak ``max(max(x), -min(x))`` is ``max(|x|)`` exactly,
    and the rows quantise a cache-sized slab at a time, in place on one
    float64 scratch, where multiplying by the power-of-two inverse
    resolution rounds exactly as dividing by the resolution does.
    """
    rows, cols = weight.shape
    peak = max(
        weight.max(initial=0.0),
        -weight.min(initial=0.0),
        bias.max(initial=0.0),
        -bias.min(initial=0.0),
    )
    fmt = DynamicFixedPoint.for_data(np.array([peak]), bits=bits)
    out = np.empty((rows + 1, cols), dtype=np.min_scalar_type(fmt.int_min))
    scratch = np.empty((max(1, _QUANTIZE_SLAB // cols), cols))
    inv = 1.0 / fmt.resolution

    def quantize(src: np.ndarray, dst: np.ndarray) -> None:
        buf = scratch[: len(src)]
        np.multiply(src, inv, out=buf)
        np.rint(buf, out=buf)
        np.clip(buf, fmt.int_min, fmt.int_max, out=buf)
        dst[...] = buf

    for r0 in range(0, rows, len(scratch)):
        r1 = min(r0 + len(scratch), rows)
        quantize(weight[r0:r1], out[r0:r1])
    quantize(np.reshape(bias, (1, cols)), out[rows:])
    return out, fmt
