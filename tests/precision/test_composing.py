"""Tests for the input-and-synapse composing scheme (§III-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.sense import PART_GRID, digitise, part_window
from repro.errors import PrecisionError
from repro.precision.composing import (
    ComposingSpec,
    compose_unsigned,
    composed_dot,
    composing_error_bound,
    reference_dot,
    split_unsigned,
)


def _windows(spec):
    """Each part's SA window at the paper's Po-bit target, by name:
    ``(pre, post)``."""
    pre, post = part_window(spec, spec.target_shift)
    return {
        name: (pre[i, j], post[i, j])
        for i, row in enumerate(PART_GRID)
        for j, name in enumerate(row)
    }


def _kept_bits(spec):
    """Top bits each sensed part keeps of its ``part_full_bits``-wide
    count: a window ``pre = 2**-s`` drops ``s`` of them."""
    return {
        name: spec.part_full_bits + int(np.log2(pre))
        for name, (pre, _) in _windows(spec).items()
        if pre
    }


class TestSplitCompose:
    def test_split_basic(self):
        hi, lo = split_unsigned(np.array([0b101101]), bits=6)
        assert hi[0] == 0b101 and lo[0] == 0b101

    def test_round_trip(self):
        values = np.arange(256)
        hi, lo = split_unsigned(values, bits=8)
        assert np.array_equal(compose_unsigned(hi, lo, 8), values)

    def test_out_of_range_rejected(self):
        with pytest.raises(PrecisionError):
            split_unsigned(np.array([64]), bits=6)
        with pytest.raises(PrecisionError):
            split_unsigned(np.array([-1]), bits=6)

    def test_odd_width_rejected(self):
        with pytest.raises(PrecisionError):
            split_unsigned(np.array([1]), bits=5)

    def test_compose_range_checks(self):
        with pytest.raises(PrecisionError):
            compose_unsigned(np.array([8]), np.array([0]), 6)

    @given(
        values=st.lists(st.integers(0, 255), min_size=1, max_size=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_compose_identity_property(self, values):
        arr = np.array(values)
        hi, lo = split_unsigned(arr, 8)
        assert np.array_equal(compose_unsigned(hi, lo, 8), arr)
        assert hi.max() < 16 and lo.max() < 16


class TestTruncation:
    """The SA keeps the top ``k`` of ``n`` bits of a part's count: the
    transfer function :func:`digitise` at the window ``pre = 2**(k -
    n)``, the conversion :func:`composed_dot` makes per part."""

    def test_keep_all(self):
        v = np.array([0b1011])
        assert digitise(v, 2.0**0, None, 4)[0] == 0b1011

    def test_keep_top_two(self):
        v = np.array([0b1011])
        assert digitise(v, 2.0**-2, None, 2)[0] == 0b10

    def test_nonpositive_keep_zeroes(self):
        # A window wholly below the register (pre = post = 0) keeps
        # nothing, as part_window gives the LL part at the defaults.
        v = np.array([15])
        assert digitise(v, 0.0, 0.0, 6)[0] == 0
        pre, post = _windows(ComposingSpec(pn=8))["LL"]
        assert digitise(v, pre, post, 6)[0] == 0

    def test_keep_clamped_to_width(self):
        # A register wider than the count: the window stays at pre = 1
        # and keeps the count whole.
        v = np.array([7])
        assert digitise(v, 2.0**0, None, 10)[0] == 7


class TestSpec:
    def test_paper_defaults(self):
        spec = ComposingSpec()
        assert spec.pin == 6 and spec.pw == 8 and spec.po == 6

    def test_part_keep_bits_match_paper(self):
        # §III-D: HH keeps all Po bits, HL keeps Po - Pin/2 = 3,
        # LH keeps Po - Pw/2 = 2, LL keeps Po - (Pin+Pw)/2 = -1: none.
        assert _kept_bits(ComposingSpec(pn=8)) == {"HH": 6, "HL": 3, "LH": 2}

    def test_ll_part_skipped(self):
        windows = _windows(ComposingSpec(pn=8))
        assert windows["LL"] == (0.0, 0.0)
        assert {name for name, (pre, _) in windows.items() if pre} == {
            "HH",
            "HL",
            "LH",
        }

    def test_full_bits(self):
        spec = ComposingSpec(pn=8)
        assert spec.full_bits == 22
        assert spec.part_full_bits == 15
        assert spec.target_shift == 16

    def test_for_rows(self):
        assert ComposingSpec.for_rows(256).pn == 8
        assert ComposingSpec.for_rows(257).pn == 9
        assert ComposingSpec.for_rows(1).pn == 0

    def test_validation(self):
        with pytest.raises(PrecisionError):
            ComposingSpec(pin=5)
        with pytest.raises(PrecisionError):
            ComposingSpec(pw=0)
        with pytest.raises(PrecisionError):
            ComposingSpec(po=0)
        with pytest.raises(PrecisionError):
            ComposingSpec(pn=-1)


class TestComposedDot:
    def test_matches_reference_within_bound(self, rng):
        spec = ComposingSpec.for_rows(256)
        a = rng.integers(0, 64, 256)
        w = rng.integers(0, 256, (256, 32))
        ref = reference_dot(a, w, spec)
        comp = composed_dot(a, w, spec)
        bound = composing_error_bound(spec)
        assert np.abs(ref - comp).max() <= bound

    def test_zero_inputs_give_zero(self):
        spec = ComposingSpec.for_rows(16)
        a = np.zeros(16, dtype=np.int64)
        w = np.full((16, 4), 255)
        assert np.all(composed_dot(a, w, spec) == 0)

    def test_max_inputs_max_weights(self):
        spec = ComposingSpec.for_rows(16)
        a = np.full(16, 63)
        w = np.full((16, 2), 255)
        ref = reference_dot(a, w, spec)
        comp = composed_dot(a, w, spec)
        assert np.abs(ref - comp).max() <= composing_error_bound(spec)
        assert ref[0] == (16 * 63 * 255) >> spec.target_shift

    def test_range_validation(self):
        spec = ComposingSpec.for_rows(4)
        with pytest.raises(PrecisionError):
            composed_dot(np.array([64, 0, 0, 0]), np.zeros((4, 1), int), spec)
        with pytest.raises(PrecisionError):
            composed_dot(np.zeros(4, int), np.full((4, 1), 256), spec)
        with pytest.raises(PrecisionError):
            composed_dot(np.zeros(5, int), np.zeros((5, 1), int), spec)

    def test_shape_validation(self):
        spec = ComposingSpec.for_rows(4)
        with pytest.raises(PrecisionError):
            composed_dot(np.zeros((2, 2), int), np.zeros((4, 1), int), spec)
        with pytest.raises(PrecisionError):
            reference_dot(np.zeros(4, int), np.zeros((3, 1), int), spec)

    @given(
        seed=st.integers(0, 2**31),
        rows=st.integers(1, 64),
        cols=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_error_bound_property(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        spec = ComposingSpec.for_rows(rows)
        a = rng.integers(0, 1 << spec.pin, rows)
        w = rng.integers(0, 1 << spec.pw, (rows, cols))
        ref = reference_dot(a, w, spec)
        comp = composed_dot(a, w, spec)
        assert np.abs(ref - comp).max() <= composing_error_bound(spec)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_composed_never_exceeds_reference(self, seed):
        # Truncation only discards low bits, so the composed result
        # can never exceed the exact reference.
        rng = np.random.default_rng(seed)
        spec = ComposingSpec.for_rows(32)
        a = rng.integers(0, 64, 32)
        w = rng.integers(0, 256, (32, 8))
        assert np.all(
            composed_dot(a, w, spec) <= reference_dot(a, w, spec)
        )


class TestAlignment:
    def test_default_alignment_shifts(self):
        # With Pin=6, Pw=8, Po=6, PN=8 every active part aligns with a
        # zero shift — the adder simply accumulates the kept integers.
        windows = _windows(ComposingSpec(pn=8))
        assert {name: post for name, (pre, post) in windows.items() if pre} == {
            "HH": 1.0,
            "HL": 1.0,
            "LH": 1.0,
        }

    def test_alignment_consistency(self):
        # For any spec, a part keeps Po - ((Pin+Pw)/2 - w) top bits (at
        # most its full width; none when that is not positive), and its
        # kept integer, aligned by post, carries its Eq. 8 weight 2**w
        # in the target sum: post = 2**(w - target_shift +
        # part_full_bits - k).
        weights = {"HH": 7, "HL": 4, "LH": 3, "LL": 0}
        for pn in (0, 2, 4, 6, 8, 10):
            for po in (2, 6, 9, 16):
                spec = ComposingSpec(po=po, pn=pn)
                kept = _kept_bits(spec)
                for name, (pre, post) in _windows(spec).items():
                    paper = po - (7 - weights[name])
                    if paper <= 0:
                        assert (pre, post) == (0.0, 0.0)
                        continue
                    k = min(paper, spec.part_full_bits)
                    assert kept[name] == k
                    assert post == 2.0 ** (
                        weights[name]
                        - spec.target_shift
                        + spec.part_full_bits
                        - k
                    )
