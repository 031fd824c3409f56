"""The input-and-synapse composing scheme (Section III-D).

The practical technology assumption is that wordline drivers produce
only 3-bit input voltages and MLC cells store only 4-bit weights, while
applications want 6-bit inputs, 8-bit weights, and 6-bit outputs.  The
composing scheme splits every input into HIGH/LOW 3-bit halves (driven
in two sequential phases) and every weight into HIGH/LOW 4-bit halves
(stored in adjacent bitlines), then rebuilds the Po-bit target result
from the partial products:

    R_full = 2^((Pin+Pw)/2) R_HH + 2^(Pw/2) R_HL
           + 2^(Pin/2) R_LH + R_LL                      (Eq. 8)

    R_target = R_full >> (Pin + Pw + P_N - Po)           (Eq. 3)

Each partial product is itself sensed at limited precision — the
reconfigurable SA keeps only the top bits of each part:

    R_HH → top Po bits,  R_HL → top Po - Pin/2 bits,
    R_LH → top Po - Pw/2 bits,  R_LL → top Po - (Pin+Pw)/2 bits

With the default Pin=6, Pw=8, Po=6 the LL part keeps a negative number
of bits and is skipped entirely, so a composed MVM needs three analog
phases (HH, HL, LH).  :func:`repro.crossbar.sense.part_window` at
``target_shift`` is that table, and :func:`composed_dot` senses each
part through the SA's one transfer function,
:func:`repro.crossbar.sense.digitise`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.errors import PrecisionError


def _ceil_log2(n: int) -> int:
    """Smallest k with 2**k >= n (and >= 0)."""
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))


def split_unsigned(values: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Split unsigned ``bits``-wide integers into (high, low) halves.

    ``bits`` must be even; each half is ``bits // 2`` wide.
    """
    if bits < 2 or bits % 2 != 0:
        raise PrecisionError("composed width must be even and >= 2")
    values = np.asarray(values)
    if np.any(values < 0) or np.any(values >= (1 << bits)):
        raise PrecisionError(f"values outside unsigned {bits}-bit range")
    half = bits // 2
    mask = (1 << half) - 1
    return values >> half, values & mask


def compose_unsigned(
    high: np.ndarray, low: np.ndarray, bits: int
) -> np.ndarray:
    """Inverse of :func:`split_unsigned`."""
    if bits < 2 or bits % 2 != 0:
        raise PrecisionError("composed width must be even and >= 2")
    half = bits // 2
    high = np.asarray(high)
    low = np.asarray(low)
    limit = 1 << half
    if np.any(high < 0) or np.any(high >= limit):
        raise PrecisionError(f"high halves outside unsigned {half}-bit range")
    if np.any(low < 0) or np.any(low >= limit):
        raise PrecisionError(f"low halves outside unsigned {half}-bit range")
    return (high << half) | low


@dataclass(frozen=True)
class ComposingSpec:
    """Bit-width bookkeeping for one composed dot product.

    Attributes
    ----------
    pin:
        Composed input precision (Pin); each analog phase drives
        ``pin // 2`` bits.
    pw:
        Composed weight precision (Pw); each bitline stores
        ``pw // 2`` bits.
    po:
        Output precision of the reconfigurable SA (Po).
    pn:
        log2 of the number of wordlines summed by the array
        (P_N; 2**pn inputs per crossbar).
    """

    pin: int = 6
    pw: int = 8
    po: int = 6
    pn: int = 8

    def __post_init__(self) -> None:
        if self.pin < 2 or self.pin % 2 != 0:
            raise PrecisionError("pin must be even and >= 2")
        if self.pw < 2 or self.pw % 2 != 0:
            raise PrecisionError("pw must be even and >= 2")
        if self.po < 1:
            raise PrecisionError("po must be >= 1")
        if self.pn < 0:
            raise PrecisionError("pn must be >= 0")

    @classmethod
    def for_rows(cls, rows: int, pin: int = 6, pw: int = 8, po: int = 6) -> "ComposingSpec":
        """Spec for a crossbar with ``rows`` wordlines."""
        return cls(pin=pin, pw=pw, po=po, pn=_ceil_log2(rows))

    @property
    def full_bits(self) -> int:
        """Bit width of the exact dot-product result (Eq. 2)."""
        return self.pin + self.pw + self.pn

    @property
    def part_full_bits(self) -> int:
        """Bit width of one exact partial product (HH/HL/LH/LL)."""
        return self.pin // 2 + self.pw // 2 + self.pn

    @property
    def target_shift(self) -> int:
        """Right shift from full precision to the Po-bit target (Eq. 3)."""
        return self.full_bits - self.po

    @property
    def part_exponents(self) -> dict[str, int]:
        """Power-of-two weight ``w_X`` of each partial product in Eq. 8.

        The one Eq. 8 table: the composed reference, the error bound
        and every tier's sense-amp window read it.
        """
        return {
            "HH": (self.pin + self.pw) // 2,
            "HL": self.pw // 2,
            "LH": self.pin // 2,
            "LL": 0,
        }


def reference_dot(
    inputs: np.ndarray, weights: np.ndarray, spec: ComposingSpec
) -> np.ndarray:
    """Exact Po-bit target result (Eq. 3): full dot product, then shift.

    ``inputs`` is (rows,) unsigned Pin-bit; ``weights`` is (rows, cols)
    unsigned Pw-bit.  Returns (cols,) integers in [0, 2**po).
    """
    inputs = np.asarray(inputs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    _check_ranges(inputs, weights, spec)
    full = inputs @ weights
    return full >> spec.target_shift


def composed_dot(
    inputs: np.ndarray, weights: np.ndarray, spec: ComposingSpec
) -> np.ndarray:
    """Hardware-faithful composed dot product (Eq. 4-9).

    Splits inputs and weights into halves, senses each partial product
    through the SA transfer function
    (:func:`~repro.crossbar.sense.digitise`) at its window for the
    paper's Po-bit target (:func:`~repro.crossbar.sense.part_window` at
    ``spec.target_shift``, which keeps the top bits the module
    docstring lists and skips the rest), and accumulates the aligned
    results — the sequence PRIME's precision-control register/adder
    performs.  Returns (cols,) integers.
    """
    # The sense amp imports this module for ComposingSpec.
    from repro.crossbar.sense import digitise, part_window

    inputs = np.asarray(inputs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    _check_ranges(inputs, weights, spec)
    in_halves = split_unsigned(inputs, spec.pin)
    w_halves = split_unsigned(weights, spec.pw)
    # [input half, weight half, column], as part_window's grid.
    parts = np.array([[a @ w for w in w_halves] for a in in_halves])
    pre, post = part_window(spec, spec.target_shift)
    digital = digitise(
        parts.astype(np.float64), pre[..., None], post[..., None], spec.po
    )
    return digital.sum(axis=(0, 1)).astype(np.int64)


def composing_error_bound(spec: ComposingSpec) -> int:
    """Worst-case absolute error of the composed vs reference result.

    Each sensed part loses the ``2**s - 1`` counts its window ``pre =
    2**-s`` truncates away (:func:`~repro.crossbar.sense.part_window`
    at ``spec.target_shift``), and each skipped part its entire
    contribution; the bound sums those losses in target-LSB units.
    """
    from repro.crossbar.sense import PART_GRID, part_window

    pre, _ = part_window(spec, spec.target_shift)
    bound = 0.0
    for i, row in enumerate(PART_GRID):
        for j, name in enumerate(row):
            weight = 2.0 ** (spec.part_exponents[name] - spec.target_shift)
            if pre[i, j]:
                bound += (1.0 / pre[i, j] - 1.0) * weight
            else:
                bound += (2.0 ** spec.part_full_bits - 1) * weight
    return int(math.ceil(bound)) + 1


def _check_ranges(
    inputs: np.ndarray, weights: np.ndarray, spec: ComposingSpec
) -> None:
    if inputs.ndim != 1:
        raise PrecisionError("inputs must be a vector")
    if weights.ndim != 2 or weights.shape[0] != inputs.shape[0]:
        raise PrecisionError("weights must be (rows, cols) with matching rows")
    if inputs.shape[0] > (1 << spec.pn):
        raise PrecisionError(
            f"{inputs.shape[0]} rows exceed the spec's 2**pn = {1 << spec.pn}"
        )
    if np.any(inputs < 0) or np.any(inputs >= (1 << spec.pin)):
        raise PrecisionError(f"inputs outside unsigned {spec.pin}-bit range")
    if np.any(weights < 0) or np.any(weights >= (1 << spec.pw)):
        raise PrecisionError(f"weights outside unsigned {spec.pw}-bit range")
