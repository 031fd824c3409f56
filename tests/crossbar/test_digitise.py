"""The shared SA digitiser against its literal definition.

Every functional tier (engine walk, compiled plan) digitises through
:func:`repro.crossbar.sense.part_window` and
:func:`repro.crossbar.sense.digitise`, so cross-tier oracles cannot
catch a bug there.  These tests pin both to the definition, written
out here in exact integer arithmetic: part ``X`` of Eq. 8 weight
``2**w`` at output shift ``S`` digitises count ``c`` to

    sign(c) * min(floor(|c| / 2**s), 2**Po - 1) << (w - S + s),
    s = max(0, S - w),

and contributes nothing when its window lies wholly below the
register (``s >= part_full_bits``).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.crossbar.sense import PART_GRID, digitise, part_window
from repro.precision.composing import ComposingSpec


def _exponents(spec):
    """Eq. 8 part weights, restated here rather than read from the
    spec under test."""
    return {
        "HH": (spec.pin + spec.pw) // 2,
        "HL": spec.pw // 2,
        "LH": spec.pin // 2,
        "LL": 0,
    }


def _literal(c, w, shift, spec):
    """The definition for one count (any real), as a Python int."""
    s = max(0, shift - w)
    if s >= spec.part_full_bits:
        return 0
    c = Fraction(float(c))
    magnitude = min(math.floor(abs(c) / 2**s), 2**spec.po - 1)
    sign = (c > 0) - (c < 0)
    return sign * magnitude << (w - shift + s)


def _counts(spec, dtype):
    """Integer, continuous, negative, zero and saturating counts."""
    rng = np.random.default_rng(spec.po)
    full = 2**spec.part_full_bits
    values = np.concatenate(
        [
            rng.integers(-full, full, 48),
            rng.uniform(-full, full, 48),
            rng.uniform(-8.0, 8.0, 16),
            [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, full - 0.5, 4.0 * full],
            [-4.0 * full, 1e9, -1e9],
        ]
    )
    return values.astype(dtype)


SPECS = [
    ComposingSpec(pin=6, pw=8, po=po, pn=8) for po in range(1, 13)
] + [ComposingSpec(pin=8, pw=4, po=5, pn=6)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "spec", SPECS, ids=lambda s: f"pin{s.pin}-pw{s.pw}-po{s.po}"
)
def test_every_part_matches_the_definition(spec, dtype):
    """Every part at every shift; a unit pre-scale is also passed as
    ``pre=None`` (skip the multiply), held to the same definition."""
    counts = _counts(spec, dtype)
    exps = _exponents(spec)
    for shift in range(spec.full_bits + 1):
        pre, post = part_window(spec, shift)
        for i, row in enumerate(PART_GRID):
            for j, part in enumerate(row):
                want = [
                    _literal(c, exps[part], shift, spec) for c in counts
                ]
                scales = [dtype(pre[i, j])]
                if pre[i, j] == 1.0:
                    scales.append(None)
                for scale in scales:
                    got = digitise(counts, scale, dtype(post[i, j]), spec.po)
                    assert got.dtype == dtype
                    assert [int(v) for v in got] == want, (part, shift, scale)
                below = max(0, shift - exps[part]) >= spec.part_full_bits
                assert (pre[i, j] == 0.0) == below


def test_in_place_and_broadcast_planes_match_per_part():
    """The plan's in-place pass over ``[phase, ..., half]`` planes
    equals digitising each part on its own."""
    spec = ComposingSpec(pin=6, pw=8, po=6, pn=8)
    rng = np.random.default_rng(3)
    planes = rng.uniform(-3000.0, 3000.0, (2, 5, 7, 2)).astype(np.float32)
    for shift in (0, 4, 9, 16):
        pre, post = part_window(spec, shift)
        grid = (2, 1, 1, 2)
        work = planes.copy()
        out = digitise(
            work,
            pre.reshape(grid).astype(np.float32),
            post.reshape(grid).astype(np.float32),
            spec.po,
            out=work,
        )
        assert out is work
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(
                    work[i, ..., j],
                    digitise(
                        planes[i, ..., j], pre[i, j], post[i, j], spec.po
                    ),
                )


def test_windows_are_cached_and_read_only():
    spec = ComposingSpec()
    pre, post = part_window(spec, 5)
    assert part_window(spec, 5)[0] is pre
    with pytest.raises(ValueError):
        pre[0, 0] = 1.0
    with pytest.raises(ValueError):
        post[0, 0] = 1.0
