"""Tests for the composed MVM engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import digitise, part_window
from repro.device.cell import scoped_noise_stream
from repro.device.faults import FaultMap
from repro.errors import CrossbarError
from repro.params.crossbar import CrossbarParams
from repro.params.reram import PT_TIO2_DEVICE
from repro.precision.composing import composing_error_bound, split_unsigned
from repro.resilience import ResiliencePolicy


@pytest.fixture
def engine() -> CrossbarMVMEngine:
    return CrossbarMVMEngine()  # ideal: no rng => no variation/noise


def _spared_and_masked() -> CrossbarMVMEngine:
    """A 32x32 engine with two unrepairable logical columns (a stuck-LRS
    positive hi bitline over a stuck-HRS negative one) and one spare
    slot: the worse column moves to the spare, the other is masked."""
    device = dataclasses.replace(
        PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
    )
    params = CrossbarParams(rows=32, cols=32, sense_amps=8, device=device)
    pos = FaultMap.none(params.rows, params.cols)
    neg = FaultMap.none(params.rows, params.cols)
    for col, rows in ((1, 16), (4, 12)):
        pos.stuck_lrs[:rows, 2 * col] = True
        neg.stuck_hrs[:rows, 2 * col] = True
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(params, fault_maps=(pos, neg))
    w = np.random.default_rng(1).integers(-255, 256, (16, 6))
    w[:, [1, 4]] = np.random.default_rng(2).integers(-15, 16, (16, 2))
    policy = ResiliencePolicy(
        verify_writes=True, spare_columns=1, mask_error_limit=1000.0
    )
    engine.program(w, resilience=policy)
    assert engine.spared_columns == 1 and engine.masked_columns == 1
    assert engine.slots_used == 7
    return engine


def _engine_of(kind: str) -> tuple[CrossbarMVMEngine, bool]:
    """An engine of one cell state, and whether its reads sample read
    noise."""
    if kind == "spared+masked":
        return _spared_and_masked(), False
    rng = np.random.default_rng(9)
    device = PT_TIO2_DEVICE
    if kind == "varied":
        device = dataclasses.replace(device, read_noise_sigma=0.0)
    engine = CrossbarMVMEngine(
        CrossbarParams(device=device), rng=None if kind == "ideal" else rng
    )
    engine.program(rng.integers(-255, 256, (200, 40)))
    return engine, kind == "noisy"


class TestProgramming:
    def test_program_and_dimensions(self, engine, rng):
        w = rng.integers(-255, 256, (100, 30))
        engine.program(w)
        assert engine.rows_used == 100
        assert engine.cols_used == 30

    def test_weight_layout_hi_lo_adjacent(self, engine):
        w = np.zeros((4, 2), dtype=np.int64)
        w[0, 0] = 0xAB  # hi=0xA, lo=0xB
        engine.program(w)
        pos = engine.pair.positive.levels
        assert pos[0, 0] == 0xA  # high nibble, even bitline
        assert pos[0, 1] == 0xB  # low nibble, odd bitline

    def test_negative_weights_to_negative_array(self, engine):
        w = np.zeros((4, 2), dtype=np.int64)
        w[1, 1] = -0x5C
        engine.program(w)
        neg = engine.pair.negative.levels
        assert neg[1, 2] == 0x5
        assert neg[1, 3] == 0xC

    def test_size_limits(self, engine):
        with pytest.raises(CrossbarError):
            engine.program(np.zeros((257, 4), dtype=np.int64))
        with pytest.raises(CrossbarError):
            engine.program(np.zeros((4, 129), dtype=np.int64))

    def test_magnitude_limit(self, engine):
        with pytest.raises(CrossbarError):
            engine.program(np.full((4, 4), 256))

    def test_mvm_before_program_rejected(self, engine):
        with pytest.raises(CrossbarError):
            engine.mvm(np.zeros(4, dtype=np.int64))

    def test_uncomposed_config_rejected(self):
        params = CrossbarParams(compose_inputs=False)
        with pytest.raises(CrossbarError):
            CrossbarMVMEngine(params)


class TestIdealAccuracy:
    def test_matches_truncated_reference(self, engine, rng):
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        out = engine.mvm(a, with_noise=False)
        exact = (a @ w) >> engine.spec.target_shift
        bound = composing_error_bound(engine.spec)
        assert np.abs(out - exact).max() <= bound

    def test_zero_inputs(self, engine, rng):
        engine.program(rng.integers(-255, 256, (64, 8)))
        out = engine.mvm(np.zeros(64, dtype=np.int64), with_noise=False)
        assert np.all(out == 0)

    def test_custom_output_shift_recovers_small_signals(self, engine, rng):
        # Small weights under the default window truncate to zero; a
        # calibrated (smaller) shift keeps the signal.
        w = rng.integers(-8, 9, (256, 8))
        engine.program(w)
        a = rng.integers(0, 8, 256)
        default = engine.mvm(a, with_noise=False)
        exact = a @ w
        shift = max(0, int(np.abs(exact).max()).bit_length() - 6)
        calibrated = engine.mvm(a, with_noise=False, output_shift=shift)
        rel_err = np.abs(calibrated * (1 << shift) - exact).max() / max(
            np.abs(exact).max(), 1
        )
        assert rel_err < 0.2
        # the default window must be no more informative
        assert np.count_nonzero(default) <= np.count_nonzero(calibrated)

    def test_batch_matches_single(self, engine, rng):
        w = rng.integers(-255, 256, (32, 8))
        engine.program(w)
        inputs = rng.integers(0, 64, (6, 32))
        batched = engine.mvm_batch(inputs, with_noise=False)
        singles = np.stack(
            [engine.mvm(row, with_noise=False) for row in inputs]
        )
        assert np.array_equal(batched, singles)

    def test_input_range_enforced(self, engine, rng):
        engine.program(rng.integers(-255, 256, (16, 4)))
        with pytest.raises(CrossbarError):
            engine.mvm(np.full(16, 64))
        with pytest.raises(CrossbarError):
            engine.mvm_batch(np.full((2, 16), -1))

    def test_input_length_enforced(self, engine, rng):
        engine.program(rng.integers(-255, 256, (16, 4)))
        with pytest.raises(CrossbarError):
            engine.mvm(np.zeros(17, dtype=np.int64))

    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_bounded_error_property(self, seed, rows):
        rng = np.random.default_rng(seed)
        engine = CrossbarMVMEngine()
        w = rng.integers(-255, 256, (rows, 4))
        engine.program(w)
        a = rng.integers(0, 64, rows)
        out = engine.mvm(a, with_noise=False)
        exact = (a @ w) >> engine.spec.target_shift
        # truncation of the signed difference costs a couple of LSBs
        # more than the unsigned bound
        assert np.abs(out - exact).max() <= (
            composing_error_bound(engine.spec) + 2
        )


class TestNoisyAccuracy:
    def test_variation_and_noise_bounded(self):
        rng = np.random.default_rng(9)
        engine = CrossbarMVMEngine(rng=rng)
        w = rng.integers(-255, 256, (256, 16))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        exact = (a @ w) >> engine.spec.target_shift
        out = engine.mvm(a, with_noise=True)
        # device non-idealities cost a handful of output LSBs
        assert np.abs(out - exact).max() <= 8

    def test_single_read_is_a_one_vector_batch(self):
        # Both draw each array's read noise once per call.
        engine, _ = _engine_of("noisy")
        a = np.random.default_rng(11).integers(0, 64, 200)
        reads = []
        for read in (
            lambda: engine.mvm(a, with_noise=True, output_shift=4),
            lambda: engine.mvm_batch(a[None], True, 4)[0],
        ):
            with scoped_noise_stream(np.random.default_rng(12)):
                reads.append(read())
        np.testing.assert_array_equal(*reads)

    def test_noise_varies_between_calls(self):
        rng = np.random.default_rng(10)
        engine = CrossbarMVMEngine(rng=rng)
        w = rng.integers(-255, 256, (256, 64))
        engine.program(w)
        a = rng.integers(0, 64, 256)
        shift = 8  # fine window so noise is visible
        o1 = engine.mvm(a, with_noise=True, output_shift=shift)
        o2 = engine.mvm(a, with_noise=True, output_shift=shift)
        assert not np.array_equal(o1, o2)


class TestOneRead:
    """The batch read is the split input codes times what the cells
    hold (``cell_weights``), digitised part by part and summed."""

    @pytest.mark.parametrize("shift", [None, 4])
    @pytest.mark.parametrize(
        "kind", ["ideal", "varied", "spared+masked", "noisy"]
    )
    def test_batch_read_is_digitised_cell_weights(self, kind, shift):
        engine, with_noise = _engine_of(kind)
        spec = engine.spec
        codes = np.random.default_rng(3).integers(
            0, 64, (5, engine.rows_used)
        )
        pre, post = part_window(
            spec, spec.target_shift if shift is None else shift
        )
        with scoped_noise_stream(np.random.default_rng(4)):
            weights = engine.cell_weights(with_noise)
        expected = sum(
            digitise(x.astype(np.float64) @ w, pre[i, j], post[i, j], spec.po)
            for i, x in enumerate(split_unsigned(codes, spec.pin))
            for j, w in enumerate(weights)
        )
        fired = engine.mvm_invocations
        converted = engine.sa_conversions
        with scoped_noise_stream(np.random.default_rng(4)):
            out = engine.mvm_batch(codes, with_noise, shift)
        np.testing.assert_array_equal(out, expected.astype(np.int64))
        assert engine.mvm_invocations - fired == 5
        # Every active part of every sensed slot, spares included.
        assert engine.sa_conversions - converted == (
            np.count_nonzero(pre) * 5 * engine.slots_used
        )
