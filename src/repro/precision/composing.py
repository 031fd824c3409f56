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
phases (HH, HL, LH).
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


def truncate_to_top_bits(
    values: np.ndarray, full_bits: int, keep_bits: int
) -> np.ndarray:
    """Keep the ``keep_bits`` most significant of ``full_bits``-wide ints.

    Models the reconfigurable SA sensing an analog quantity whose full
    scale is ``2**full_bits`` with only ``keep_bits`` of precision.
    ``keep_bits <= 0`` yields all zeros (the part is skipped).
    """
    if full_bits < 1:
        raise PrecisionError("full_bits must be >= 1")
    values = np.asarray(values)
    if keep_bits <= 0:
        return np.zeros_like(values)
    keep_bits = min(keep_bits, full_bits)
    shift = full_bits - keep_bits
    return values >> shift


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

    def part_keep_bits(self) -> dict[str, int]:
        """SA precision (top bits kept) for each partial product."""
        return {
            "HH": self.po,
            "HL": self.po - self.pin // 2,
            "LH": self.po - self.pw // 2,
            "LL": self.po - (self.pin + self.pw) // 2,
        }

    def active_phases(self) -> list[str]:
        """Partial products that contribute at least one output bit."""
        return [name for name, k in self.part_keep_bits().items() if k > 0]

    def part_alignment_shift(self) -> dict[str, int]:
        """Left shift aligning each truncated part into the target sum.

        Derivation: part X carries weight 2**w_X in Eq. 8 (w_HH =
        (Pin+Pw)/2, w_HL = Pw/2, w_LH = Pin/2, w_LL = 0).  After the SA
        keeps the top k_X bits of a ``part_full_bits``-wide value, the
        kept integer equals ``R_X >> (part_full_bits - k_X)``, so its
        contribution to ``R_target = R_full >> target_shift`` is

            R_X_kept << (w_X - target_shift + part_full_bits - k_X)

        which is 0 for every active part under the default widths —
        i.e. the adder simply accumulates the kept integers.
        """
        weights = self.part_exponents
        out: dict[str, int] = {}
        for name, keep in self.part_keep_bits().items():
            if keep <= 0:
                continue
            keep = min(keep, self.part_full_bits)
            out[name] = (
                weights[name]
                - self.target_shift
                + self.part_full_bits
                - keep
            )
        return out


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

    Splits inputs and weights into halves, evaluates each active
    partial product at the SA's truncated precision, aligns, and
    accumulates — exactly the sequence PRIME's precision-control
    register/adder performs.  Returns (cols,) integers.
    """
    inputs = np.asarray(inputs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    _check_ranges(inputs, weights, spec)
    in_hi, in_lo = split_unsigned(inputs, spec.pin)
    w_hi, w_lo = split_unsigned(weights, spec.pw)
    parts = {
        "HH": (in_hi, w_hi),
        "HL": (in_lo, w_hi),
        "LH": (in_hi, w_lo),
        "LL": (in_lo, w_lo),
    }
    keep = spec.part_keep_bits()
    align = spec.part_alignment_shift()
    total = np.zeros(weights.shape[1], dtype=np.int64)
    for name in spec.active_phases():
        vec, mat = parts[name]
        part_full = vec @ mat
        kept = truncate_to_top_bits(
            part_full, spec.part_full_bits, keep[name]
        )
        shift = align[name]
        if shift >= 0:
            total = total + (kept << shift)
        else:
            total = total + (kept >> (-shift))
    return total


def composing_error_bound(spec: ComposingSpec) -> int:
    """Worst-case absolute error of the composed vs reference result.

    Each active part truncates away ``part_full_bits - keep`` low bits
    before alignment, and the skipped parts drop their entire
    contribution; the bound sums those losses in target-LSB units.
    """
    keep = spec.part_keep_bits()
    weights = spec.part_exponents
    bound = 0.0
    for name, k in keep.items():
        contribution_shift = weights[name] - spec.target_shift
        if k > 0:
            lost_bits = spec.part_full_bits - min(k, spec.part_full_bits)
            bound += (2.0 ** lost_bits - 1) * 2.0 ** contribution_shift
        else:
            bound += (2.0 ** spec.part_full_bits - 1) * (
                2.0 ** contribution_shift
            )
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
