"""Tests for the programmed layer's inline and walked runs and the
streaming functional path.

The contract under test: a layer run through the compiled plan's
inline step (:func:`~repro.perf.plan.run_layer`) is *bit-identical* to
the per-engine tile walk (``np.array_equal``, not allclose) on ideal
arrays, on arrays programmed with variation, on stuck-at faulted arrays
and on resilience-remapped tiles, with noise off and, under equal
draws, with read noise on; telemetry and every engine's counters charge
the same hardware firings either way; a noisy call reproduces under a
fixed seed and moves the engines' shared generator exactly as far as
the walk does, while a scoped noise stream leaves it alone on both
paths; racing walks lose no counter increment; and streaming the batch
through ``run_functional`` in chunks never changes the output.
"""

import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.device.cell import scoped_noise_stream
from repro.errors import CrossbarError
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf.plan import fused_enabled, run_layer
from repro.precision.dynamic_fixed_point import DynamicFixedPoint


@pytest.fixture
def compiler():
    return PrimeCompiler(DEFAULT_PRIME_CONFIG)


@pytest.fixture
def executor():
    return PrimeExecutor(DEFAULT_PRIME_CONFIG)


def make_grid(params, grid_rows, grid_cols, rng, engine_rng=None):
    """A programmed tile grid with random weights; full tiles except
    the last row/column block (the executor's padding pattern)."""
    w_max = (1 << params.effective_weight_bits) - 1
    tiles = []
    for rb in range(len(grid_rows)):
        row = []
        for cb in range(len(grid_cols)):
            engine = CrossbarMVMEngine(params, rng=engine_rng)
            engine.program(
                rng.integers(
                    -w_max, w_max + 1, (grid_rows[rb], grid_cols[cb])
                )
            )
            row.append(engine)
        tiles.append(row)
    return tiles


def make_codes(params, layer, batch, rng):
    return rng.integers(
        0,
        1 << params.effective_input_bits,
        (batch, layer.total_rows),
        dtype=np.int64,
    )


def programmed_layer(params, tiles):
    """``tiles`` as a programmed layer whose codes equal its inputs:
    unit-resolution input and weight formats; the caller sets the SA
    window (``output_shift``)."""
    programmed = ProgrammedLayer(
        tiles, DynamicFixedPoint(params.effective_weight_bits + 1, 0)
    )
    programmed.in_fmt = DynamicFixedPoint(
        params.effective_input_bits, 0, signed=False
    )
    return programmed


def quiet_params():
    """A 32x32 crossbar on a device without programming variation or
    read noise: stuck-at faults leave its cells on the level lattice."""
    import dataclasses

    from repro.params.crossbar import CrossbarParams
    from repro.params.reram import PT_TIO2_DEVICE

    return CrossbarParams(
        rows=32,
        cols=32,
        sense_amps=8,
        device=dataclasses.replace(
            PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
        ),
    )


def faulted_engine(params, rows, cols, rng):
    """An engine programmed with random weights over arrays with stuck
    cells in its first two logical columns."""
    from repro.crossbar.pair import DifferentialPair
    from repro.device.faults import FaultMap

    pos = FaultMap.none(params.rows, params.cols)
    neg = FaultMap.none(params.rows, params.cols)
    pos.stuck_lrs[:20:3, 1] = True
    neg.stuck_hrs[2:9, 2] = True
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(params, fault_maps=(pos, neg))
    w_max = (1 << params.effective_weight_bits) - 1
    engine.program(rng.integers(-w_max, w_max + 1, (rows, cols)))
    return engine


def layer_inputs(params, layer, batch, rng):
    """Random codes for every row but the bias row, which
    :func:`~repro.perf.plan.run_layer` drives at 1."""
    return make_codes(params, layer, batch, rng)[:, :-1].astype(float)


def int64_calibrate_shift(tiles, codes, po, calibration_samples=64):
    """Reference SA-window calibration in integer arithmetic: the
    largest per-tile-row partial result of the code prefix must fit
    the Po-bit output register.  The layer's float BLAS routine must
    reproduce it exactly."""
    sample = np.asarray(codes, dtype=np.int64)[:calibration_samples]
    bound = 1
    off = 0
    for row in tiles:
        rows = row[0].rows_used
        weights = np.hstack([e.programmed_weights for e in row]).astype(
            np.int64
        )
        bound = max(
            bound,
            int(np.max(np.abs(sample[:, off : off + rows] @ weights))),
        )
        off += rows
    return max(0, bound.bit_length() - po)


class TestFusedBitIdentity:
    """Inline layer output == per-engine output, exactly: with noise
    off, and with read noise under equal draws."""

    @pytest.mark.parametrize(
        "grid_rows, grid_cols",
        [
            ([32], [16]),            # one full tile
            ([32, 7], [16]),         # split rows (merge across blocks)
            ([32], [16, 5]),         # split columns
            ([32, 11], [16, 9]),     # full 2x2 split-merge grid
        ],
    )
    def test_matches_per_engine(
        self, small_xbar, rng, layer_runs, grid_rows, grid_cols
    ):
        tiles = make_grid(small_xbar, grid_rows, grid_cols, rng)
        programmed = programmed_layer(small_xbar, tiles)
        x = layer_inputs(small_xbar, programmed, 17, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            # Each new shift re-lowers the memoised one-step plan.
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired

    def test_with_noise_flag_but_no_rng_still_exact(
        self, small_xbar, rng, layer_runs
    ):
        # Engines without an RNG never sample noise, so with_noise=True
        # stays on the exact inline path and must match the walk.
        tiles = make_grid(small_xbar, [32, 5], [16], rng)
        programmed = programmed_layer(small_xbar, tiles)
        programmed.output_shift = programmed.spec.target_shift
        x = layer_inputs(small_xbar, programmed, 9, rng)
        (inline, fired), (walked, walk_fired) = layer_runs(
            programmed, x, with_noise=True
        )
        assert np.array_equal(inline, walked)
        assert fired == walk_fired

    def test_calibration_matches_executor_static(self, small_xbar, rng):
        tiles = make_grid(small_xbar, [32, 13], [16, 6], rng)
        layer = ProgrammedLayer(tiles, None)
        codes = make_codes(small_xbar, layer, 40, rng)
        assert layer.calibrate_output_shift(codes) == (
            int64_calibrate_shift(tiles, codes, layer.spec.po)
        )

    def test_variation_grid_fuses_and_matches_walk(
        self, small_xbar, rng, layer_runs
    ):
        # Programming variation makes the counts continuous: the inline
        # step reads them from the differential conductance stack and
        # must digitise to exactly the walk's integers.
        assert small_xbar.device.programming_sigma > 0
        geometries = [
            ([32], [16]),
            ([32, 7], [16]),
            ([32], [16, 5]),
            ([32, 11], [16, 9]),
        ]
        for seed, (grid_rows, grid_cols) in enumerate(geometries):
            tiles = make_grid(
                small_xbar, grid_rows, grid_cols, rng,
                engine_rng=np.random.default_rng(seed),
            )
            programmed = programmed_layer(small_xbar, tiles)
            assert not programmed.on_lattice
            assert programmed.samples_read_noise(True)
            x = layer_inputs(small_xbar, programmed, 17, rng)
            for shift in (0, 2, programmed.spec.target_shift, 12):
                programmed.output_shift = shift
                for with_noise in (False, True):
                    (inline, fired), (walked, walk_fired) = layer_runs(
                        programmed, x, with_noise
                    )
                    assert np.array_equal(inline, walked)
                    assert fired == walk_fired
            # The inline runs read the step's own float64 stack.
            step = programmed.compiled_plan.steps[0]
            assert step.stacked
            assert all(b.dtype == np.float64 for b in step._blocks())

    def test_on_lattice_faulted_grid_fuses_and_matches_walk(
        self, rng, layer_runs
    ):
        # Stuck cells on a noise-free device keep every conductance on
        # the level lattice: the inline step reads the stuck levels
        # from the cells into an exact integer stack and must equal the
        # walk, which counts them exactly too.
        params = quiet_params()
        tiles = [
            [faulted_engine(params, rows, cols, rng) for cols in (7, 5)]
            for rows in (20, 9)
        ]
        for engine in (e for row in tiles for e in row):
            assert engine.slots_used == engine.cols_used
            assert not engine.degraded and not engine.holds_programmed
            # What the cells hold differs from the programmed weights.
            hi, lo = engine.cell_weights()
            assert not np.array_equal(
                16 * hi + lo, engine.programmed_weights
            )
        programmed = programmed_layer(params, tiles)
        assert programmed.on_lattice
        assert not programmed.samples_read_noise(True)
        x = layer_inputs(params, programmed, 9, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired
        assert programmed.compiled_plan.steps[0].cdtype == np.float32

    def test_wire_resistance_grid_fuses_and_matches_walk(
        self, small_xbar, rng, layer_runs
    ):
        # IR drop attenuates every read, off the lattice: the inline
        # step reads the attenuated conductances into a float64 stack.
        tiles = make_grid(small_xbar, [32, 11], [16, 9], rng)
        for engine in (e for row in tiles for e in row):
            for array in (engine.pair.positive, engine.pair.negative):
                array.wire_resistance = 2.0
        programmed = programmed_layer(small_xbar, tiles)
        assert not programmed.on_lattice
        x = layer_inputs(small_xbar, programmed, 17, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired
        assert programmed.compiled_plan.steps[0].cdtype == np.float64

    def test_wire_resistance_lone_bias_row_matches_walk(
        self, small_xbar, rng, layer_runs
    ):
        # On a full row block the bias sits on the last row, where the
        # cell at wire distance 0 (bitline 0) is unattenuated: a
        # bias-only input counts bias * level there, an exact integer.
        # Both paths must sum the cell pair's (G+ - G-) / g_step to it,
        # or the SA truncates the two to different codes at shift 0.
        x = np.zeros((1, small_xbar.rows - 1))
        for _ in range(40):
            tiles = make_grid(small_xbar, [small_xbar.rows], [16], rng)
            pair = tiles[0][0].pair
            for array in (pair.positive, pair.negative):
                array.wire_resistance = 2.0
            programmed = programmed_layer(small_xbar, tiles)
            for shift in (0, 2):
                programmed.output_shift = shift
                (inline, fired), (walked, walk_fired) = layer_runs(
                    programmed, x
                )
                assert np.array_equal(inline, walked)
                assert fired == walk_fired

    def test_mixed_lattice_grid_fuses_and_matches_walk(
        self, rng, layer_runs
    ):
        # One grid, four cell states: row block 0 holds an ideal and a
        # drifted engine, row block 1 a stuck-at and a wire-resistance
        # one.  The stack is float64, and the on-lattice engines'
        # columns in it hold exact integers.
        params = quiet_params()
        tiles = make_grid(params, [32, 11], [16, 9], rng)
        for array in (tiles[0][1].pair.positive, tiles[0][1].pair.negative):
            array.apply_drift(0.3, np.random.default_rng(3))
        tiles[1][0] = faulted_engine(params, 11, 16, rng)
        for array in (tiles[1][1].pair.positive, tiles[1][1].pair.negative):
            array.wire_resistance = 2.0
        assert [[e.on_lattice for e in row] for row in tiles] == [
            [True, False],
            [True, False],
        ]
        assert tiles[0][0].holds_programmed
        assert not tiles[1][0].holds_programmed
        programmed = programmed_layer(params, tiles)
        x = layer_inputs(params, programmed, 17, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired
        step = programmed.compiled_plan.steps[0]
        assert step.cdtype == np.float64
        t = programmed.total_cols
        lattice = np.r_[0:16, t : t + 16]
        for block in step._blocks():
            assert np.array_equal(
                block[:, lattice], np.trunc(block[:, lattice])
            )
            assert not np.array_equal(block, np.trunc(block))

    @pytest.mark.parametrize(
        "state", ["ideal", "stuck-at", "drift", "wire-resistance"]
    )
    def test_noisy_cell_states_fuse_and_match_walk(
        self, rng, layer_runs, state
    ):
        # Read noise on a device without programming variation, over
        # each cell state: a noisy inline call reads every engine's
        # cells under its own draw and equals the walk's read under
        # equal draws, each engine's counters included.
        import dataclasses

        from repro.crossbar.pair import DifferentialPair
        from repro.device.faults import FaultMap
        from repro.params.crossbar import CrossbarParams
        from repro.params.reram import PT_TIO2_DEVICE

        params = CrossbarParams(
            rows=32,
            cols=32,
            sense_amps=8,
            device=dataclasses.replace(
                PT_TIO2_DEVICE, programming_sigma=0.0
            ),
        )
        noise = np.random.default_rng(41)
        tiles = make_grid(params, [32, 11], [16, 9], rng, engine_rng=noise)
        for engine in (e for row in tiles for e in row):
            if state == "stuck-at":
                pos = FaultMap.none(params.rows, params.cols)
                neg = FaultMap.none(params.rows, params.cols)
                pos.stuck_lrs[:20:3, 2] = True
                neg.stuck_hrs[2:9, 5] = True
                engine.pair = DifferentialPair(
                    params, rng=noise, fault_maps=(pos, neg)
                )
                engine.program(engine.programmed_weights)
            for array in (engine.pair.positive, engine.pair.negative):
                if state == "drift":
                    array.apply_drift(0.3, noise)
                elif state == "wire-resistance":
                    array.wire_resistance = 2.0
        programmed = programmed_layer(params, tiles)
        assert programmed.samples_read_noise(True)
        assert programmed.on_lattice == (state in ("ideal", "stuck-at"))
        x = layer_inputs(params, programmed, 13, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x, with_noise=True
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired
        # The noisy calls cached no stack.
        assert not programmed.compiled_plan.steps[0].stacked


#: Conv layers' im2col geometry at the default 28x28 input: (rows incl.
#: the bias row, vectors per sample) of CNN-1's 5x5 and CNN-2's 7x7
#: kernels.
CONV_GEOMETRY = [(5 * 5 + 1, 24 * 24), (7 * 7 + 1, 22 * 22)]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_float_calibration_equals_int64_at_the_bound(data):
    """The float BLAS calibration equals the integer reference where
    partial sums peak: codes at ``2**pin - 1``, weights at
    ``±(2**pw - 1)``, full 256-row blocks, tail blocks, and a conv
    layer's calibration prefix (64 samples x their im2col vectors)."""
    params = DEFAULT_PRIME_CONFIG.crossbar
    code_max = (1 << params.effective_input_bits) - 1
    w_max = (1 << params.effective_weight_bits) - 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans(), label="conv"):
        rows, vecs = data.draw(st.sampled_from(CONV_GEOMETRY))
        grid_rows = [rows]
        cal_rows = 64 * vecs
        batch = cal_rows + data.draw(st.integers(0, vecs))
    else:
        full = data.draw(st.integers(0, 2), label="full blocks")
        tail = data.draw(st.integers(0 if full else 1, params.rows - 1))
        grid_rows = [params.rows] * full + ([tail] if tail else [])
        cal_rows = 64
        batch = data.draw(st.integers(1, 80))
    grid_cols = data.draw(
        st.lists(st.integers(1, 6), min_size=1, max_size=2)
    )
    # Share of entries pinned to the extremes; the rest are uniform.
    extreme = data.draw(st.sampled_from([1.0, 0.9, 0.5]))
    sign = data.draw(st.sampled_from([1, -1, 0]), label="weight sign")
    tiles = []
    for rows in grid_rows:
        row = []
        for cols in grid_cols:
            w = rng.integers(-w_max, w_max + 1, (rows, cols))
            pinned = rng.random((rows, cols)) < extreme
            signs = sign or rng.choice([-1, 1], (rows, cols))
            w[pinned] = (signs * w_max * np.ones_like(w))[pinned]
            engine = CrossbarMVMEngine(params)
            engine.program(w)
            row.append(engine)
        tiles.append(row)
    layer = ProgrammedLayer(tiles, None)
    codes = rng.integers(0, code_max + 1, (batch, layer.total_rows))
    codes[rng.random(codes.shape) < extreme] = code_max
    assert layer.calibrate_output_shift(
        codes, calibration_samples=cal_rows
    ) == int64_calibrate_shift(tiles, codes, layer.spec.po, cal_rows)


def test_calibration_bound_at_full_scale():
    """All codes and weights at full scale in one full block: the
    partial sum reaches ``rows * (2**pin - 1) * (2**pw - 1)`` exactly."""
    params = DEFAULT_PRIME_CONFIG.crossbar
    code_max = (1 << params.effective_input_bits) - 1
    w_max = (1 << params.effective_weight_bits) - 1
    engine = CrossbarMVMEngine(params)
    engine.program(np.full((params.rows, 3), -w_max))
    layer = ProgrammedLayer([[engine]], None)
    codes = np.full((64, params.rows), code_max)
    bound = params.rows * code_max * w_max
    assert bound < 1 << 22
    expected = max(0, bound.bit_length() - layer.spec.po)
    assert layer.calibrate_output_shift(codes) == expected
    assert int64_calibrate_shift([[engine]], codes, layer.spec.po) == (
        expected
    )


#: (input bits, cell bits, SA output bits): the default crossbar, and
#: narrower and wider drivers, cells and sense amps.
CALIBRATION_PRECISIONS = [
    (3, 4, 6), (2, 3, 4), (4, 4, 8), (3, 2, 10), (1, 1, 3),
]


def _precision_params(input_bits, cell_bits, po):
    """A 256-row crossbar at the given driver, cell and SA widths."""
    import dataclasses

    from repro.params.crossbar import CrossbarParams
    from repro.params.reram import PT_TIO2_DEVICE

    return CrossbarParams(
        input_bits=input_bits,
        cell_bits=cell_bits,
        output_bits=po,
        device=dataclasses.replace(PT_TIO2_DEVICE, mlc_bits=cell_bits),
    )


def _extreme_grid(params, grid_rows, grid_cols, rng, engine_rng=None):
    """Random weights, half of them pinned at ``±(2**pw - 1)``."""
    w_max = (1 << params.effective_weight_bits) - 1
    tiles = []
    for rows in grid_rows:
        row = []
        for cols in grid_cols:
            w = rng.integers(-w_max, w_max + 1, (rows, cols))
            pinned = rng.random((rows, cols)) < 0.5
            w[pinned] = (rng.choice([-1, 1], (rows, cols)) * w_max)[pinned]
            engine = CrossbarMVMEngine(params, rng=engine_rng)
            engine.program(w)
            row.append(engine)
        tiles.append(row)
    return tiles


def _extreme_codes(params, layer, batch, rng):
    code_max = (1 << params.effective_input_bits) - 1
    codes = rng.integers(0, code_max + 1, (batch, layer.total_rows))
    codes[rng.random(codes.shape) < 0.5] = code_max
    return codes


@pytest.mark.parametrize("input_bits, cell_bits, po", CALIBRATION_PRECISIONS)
def test_calibration_equals_int64_across_precisions(
    input_bits, cell_bits, po
):
    """The calibration matmul (float32 under its 2**24 bound, as at
    every setting here) equals the integer reference over full and tail
    row blocks at each driver, cell and SA width."""
    params = _precision_params(input_bits, cell_bits, po)
    rng = np.random.default_rng(input_bits * 100 + cell_bits * 10 + po)
    tiles = _extreme_grid(params, [256, 256, 40], [5, 3], rng)
    layer = ProgrammedLayer(tiles, None)
    codes = _extreme_codes(params, layer, 70, rng)
    assert layer.calibrate_output_shift(codes) == int64_calibrate_shift(
        tiles, codes, layer.spec.po
    )


def test_calibration_past_the_float32_bound_runs_float64():
    """At 8-bit inputs and 10-bit weights a 256-row partial sum can
    pass 2**24, so the calibration runs in float64.  One column sums to
    2**25 - 1, which float32 would round up to 2**25, one bit longer."""
    params = _precision_params(4, 5, 6)
    spec = CrossbarMVMEngine(params).spec
    code_max = (1 << spec.pin) - 1
    w_max = (1 << spec.pw) - 1
    assert params.rows * code_max * w_max >= 1 << 24
    target = (1 << 25) - 1
    full, rest = divmod(target, code_max * w_max)
    w = np.zeros((params.rows, 1), dtype=np.int64)
    w[:full, 0] = w_max
    w[full, 0], last = divmod(rest, code_max)
    w[full + 1, 0] = last
    codes = np.zeros((3, params.rows), dtype=np.int64)
    codes[0, : full + 1] = code_max
    codes[0, full + 1] = 1
    codes[1:] = np.random.default_rng(5).integers(0, 3, (2, params.rows))
    assert int((codes[0] @ w)[0]) == target
    assert float(np.float32(target)) == 1 << 25
    engine = CrossbarMVMEngine(params)
    engine.program(w)
    layer = ProgrammedLayer([[engine]], None)
    expected = max(0, target.bit_length() - spec.po)
    assert layer.calibrate_output_shift(codes) == expected
    assert int64_calibrate_shift([[engine]], codes, spec.po) == expected


def test_calibration_reads_dead_columns_as_zero():
    """Sparing zeroes a masked column in ``programmed_weights``; the
    calibration reads it there, like the integer reference."""
    import dataclasses

    from repro.crossbar.pair import DifferentialPair
    from repro.device.faults import FaultMap
    from repro.params.crossbar import CrossbarParams
    from repro.params.reram import PT_TIO2_DEVICE
    from repro.resilience import ResiliencePolicy

    params = CrossbarParams(
        rows=32,
        cols=32,
        sense_amps=8,
        device=dataclasses.replace(
            PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
        ),
    )
    policy = ResiliencePolicy(
        verify_writes=True, spare_columns=0, mask_error_limit=1000.0
    )
    rng = np.random.default_rng(31)
    row = []
    for bad in (3, None):
        w = rng.integers(-255, 256, (20, 6))
        engine = CrossbarMVMEngine(params)
        if bad is not None:
            # Full-scale weights in the dead column, opposite to its
            # stuck-at-LRS positive cells: calibrating on them would
            # widen the window.
            w[:, bad] = -255
            pos = FaultMap.none(params.rows, params.cols)
            neg = FaultMap.none(params.rows, params.cols)
            pos.stuck_lrs[:20, 2 * bad] = True
            neg.stuck_hrs[:20, 2 * bad] = True
            engine.pair = DifferentialPair(params, fault_maps=(pos, neg))
        engine.program(w, resilience=policy)
        row.append(engine)
    assert row[0].masked_columns == 1
    assert np.all(row[0].programmed_weights[:, 3] == 0)
    layer = ProgrammedLayer([row], None)
    codes = make_codes(params, layer, 12, rng)
    assert layer.calibrate_output_shift(codes) == int64_calibrate_shift(
        [row], codes, layer.spec.po
    )


def test_variation_grid_calibrates_on_ideal_weights(small_xbar, rng):
    """Arrays programmed with variation calibrate on the ideal integer
    weights they were programmed with, not on their cells."""
    assert small_xbar.device.programming_sigma > 0
    tiles = _extreme_grid(
        small_xbar, [32, 9], [16, 7], rng,
        engine_rng=np.random.default_rng(17),
    )
    layer = ProgrammedLayer(tiles, None)
    assert not layer.on_lattice
    codes = _extreme_codes(small_xbar, layer, 20, rng)
    assert layer.calibrate_output_shift(codes) == int64_calibrate_shift(
        tiles, codes, layer.spec.po
    )


class TestFaultyPlanFallback:
    """Engines with spared/masked columns run inline, with and without
    read noise: the plan reads each logical column at its spare slot
    and zeroes the dead ones, as the walk's gather/zero-mask
    post-processing does."""

    pytestmark = pytest.mark.resilience

    def _grids(self, count=1, rng=None):
        """``count`` remapped grids; ``rng`` gives every array one
        shared generator on a device with read noise (and still no
        programming variation)."""
        import dataclasses

        from repro.crossbar.pair import DifferentialPair
        from repro.device.faults import FaultMap
        from repro.params.crossbar import CrossbarParams
        from repro.params.reram import PT_TIO2_DEVICE
        from repro.resilience import ResiliencePolicy

        params = CrossbarParams(
            rows=32,
            cols=32,
            sense_amps=8,
            device=dataclasses.replace(
                PT_TIO2_DEVICE,
                programming_sigma=0.0,
                read_noise_sigma=(
                    0.0 if rng is None else PT_TIO2_DEVICE.read_noise_sigma
                ),
            ),
        )
        policy = ResiliencePolicy(verify_writes=True, spare_columns=2)
        weights = np.random.default_rng(21)
        w_bad = weights.integers(-15, 16, size=(16, 6))
        w_ok = weights.integers(-255, 256, size=(16, 9))
        grids = []
        for _ in range(count):
            pos = FaultMap.none(params.rows, params.cols)
            neg = FaultMap.none(params.rows, params.cols)
            pos.stuck_lrs[:16, 4] = True  # logical column 2, hi bitline
            neg.stuck_hrs[:16, 4] = True
            broken = CrossbarMVMEngine(params)
            broken.pair = DifferentialPair(
                params, rng=rng, fault_maps=(pos, neg)
            )
            broken.program(w_bad, resilience=policy)
            assert broken.spared_columns == 1
            healthy = CrossbarMVMEngine(params)
            healthy.pair = DifferentialPair(
                params,
                rng=rng,
                fault_maps=(
                    FaultMap.none(params.rows, params.cols),
                    FaultMap.none(params.rows, params.cols),
                ),
            )
            healthy.program(w_ok, resilience=policy)
            grids.append([[broken, healthy]])
        return params, grids

    def test_remapped_grid_fuses_and_matches_walk(self, rng, layer_runs):
        params, (tiles,) = self._grids()
        broken = tiles[0][0]
        assert broken.spared_columns and broken.slots_used > broken.cols_used
        programmed = programmed_layer(params, tiles)
        assert not programmed.samples_read_noise(True)
        x = layer_inputs(params, programmed, 11, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x
            )
            assert np.array_equal(inline, walked)
            # Conversions count the spare slots the SA senses.
            assert fired == walk_fired

    def test_noisy_remapped_grid_fuses_and_matches_walk(
        self, rng, layer_runs
    ):
        """A noisy call reads every engine's cells under its own draw,
        the broken engine's spare slot included, and equals the walk's
        read under equal draws."""
        params, (tiles,) = self._grids(rng=np.random.default_rng(5))
        programmed = programmed_layer(params, tiles)
        assert programmed.samples_read_noise(True)
        assert programmed.on_lattice
        x = layer_inputs(params, programmed, 6, rng)
        for shift in (0, 2, programmed.spec.target_shift, 12):
            programmed.output_shift = shift
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x, with_noise=True
            )
            assert np.array_equal(inline, walked)
            assert fired == walk_fired
            (quiet, _), _ = layer_runs(programmed, x)
            if shift == 0:
                # The finest SA window resolves the read noise.
                assert not np.array_equal(inline, quiet)
        # The noisy calls built no cached stack; the quiet ones did, in
        # float64, as every step that can draw read noise.
        step = programmed.compiled_plan.steps[0]
        assert step.stacked and step.cdtype == np.float64

    def test_fallback_matches_fresh_per_engine_run(self, rng):
        params, (tiles, twin) = self._grids(count=2)
        layer = ProgrammedLayer(tiles, None)
        codes = make_codes(params, layer, 11, rng)
        auto = layer.mvm_batch(codes, with_noise=False)
        again = layer.mvm_batch(codes, with_noise=False)
        assert np.array_equal(auto, again)
        # A never-fused twin grid, walked engine by engine, agrees.
        fresh = np.concatenate(
            [
                twin[0][0].mvm_batch(codes[:, :16], with_noise=False),
                twin[0][1].mvm_batch(codes[:, :16], with_noise=False),
            ],
            axis=1,
        )
        assert np.array_equal(auto, fresh)

    def test_fallback_counters_match_walk(self, rng):
        params, (tiles, twin) = self._grids(count=2)
        codes = make_codes(params, ProgrammedLayer(tiles, None), 7, rng)

        def run(grid):
            layer = ProgrammedLayer(grid, None)
            session = telemetry.enable(fresh=True)
            try:
                layer.mvm_batch(codes, with_noise=False)
                return (
                    session.metrics.counter_total("mvm.invocations"),
                    session.metrics.counter_total("mvm.model_time_ns"),
                    session.metrics.counter_total("mvm.energy_nj"),
                )
            finally:
                telemetry.disable()

        auto = run(tiles)
        walked_session = telemetry.enable(fresh=True)
        try:
            ProgrammedLayer(twin, None).mvm_batch(codes, with_noise=False)
            walked = (
                walked_session.metrics.counter_total("mvm.invocations"),
                walked_session.metrics.counter_total("mvm.model_time_ns"),
                walked_session.metrics.counter_total("mvm.energy_nj"),
            )
        finally:
            telemetry.disable()
        assert auto == walked
        assert auto[0] > 0


class TestKernelValidation:
    def test_ragged_grid_rejected(self, small_xbar, rng):
        tiles = make_grid(small_xbar, [16, 16], [16, 16], rng)
        tiles[1] = tiles[1][:1]
        with pytest.raises(CrossbarError):
            ProgrammedLayer(tiles, None)

    def test_unprogrammed_engine_rejected(self, small_xbar):
        with pytest.raises(CrossbarError):
            ProgrammedLayer([[CrossbarMVMEngine(small_xbar)]], None)

    def test_mismatched_rows_used_rejected(self, small_xbar, rng):
        tiles = make_grid(small_xbar, [16], [16], rng)
        extra = CrossbarMVMEngine(small_xbar)
        extra.program(rng.integers(-3, 4, (9, 16)))
        tiles[0].append(extra)
        with pytest.raises(CrossbarError):
            ProgrammedLayer(tiles, None)

    def test_bad_code_shape_rejected(self, small_xbar, rng):
        layer = ProgrammedLayer(
            make_grid(small_xbar, [16], [16], rng), None
        )
        with pytest.raises(CrossbarError):
            layer.mvm_batch(np.zeros((4, 15), dtype=np.int64))

    def test_out_of_range_codes_rejected(self, small_xbar, rng):
        layer = ProgrammedLayer(
            make_grid(small_xbar, [16], [16], rng), None
        )
        codes = np.zeros((2, 16), dtype=np.int64)
        codes[0, 0] = 1 << small_xbar.effective_input_bits
        with pytest.raises(CrossbarError):
            layer.mvm_batch(codes)


class TestNoisyFusedReproducibility:
    """Noisy :func:`~repro.perf.plan.run_layer` calls, inline and
    walked, draw each array's read noise per call from
    :func:`~repro.device.cell.read_noise_rng`."""

    def _build(self, params, seed):
        rng = np.random.default_rng(seed)
        weights = np.random.default_rng(99)  # same weights every build
        tiles = make_grid(params, [24, 8], [16], weights, engine_rng=rng)
        programmed = programmed_layer(params, tiles)
        programmed.output_shift = 0  # fine enough to resolve the noise
        return programmed

    def _run(self, programmed, x, walk=False):
        with mock.patch.dict(
            os.environ, {"PRIME_FUSED": "0" if walk else "1"}
        ):
            if walk:
                return run_layer(programmed, x, with_noise=True)
            with mock.patch.object(
                ProgrammedLayer, "mvm_batch", side_effect=AssertionError
            ):
                return run_layer(programmed, x, with_noise=True)

    def test_same_seed_reproduces(self, small_xbar, rng):
        assert small_xbar.device.read_noise_sigma > 0
        x = layer_inputs(small_xbar, self._build(small_xbar, 7), 6, rng)
        for walk in (False, True):
            out1 = self._run(self._build(small_xbar, 7), x, walk)
            out2 = self._run(self._build(small_xbar, 7), x, walk)
            assert np.array_equal(out1, out2)

    def test_different_seed_differs(self, small_xbar, rng):
        x = layer_inputs(small_xbar, self._build(small_xbar, 7), 6, rng)
        for walk in (False, True):
            out1 = self._run(self._build(small_xbar, 7), x, walk)
            out2 = self._run(self._build(small_xbar, 8), x, walk)
            assert not np.array_equal(out1, out2)

    def test_noisy_call_advances_shared_stream(self, small_xbar, rng):
        """Each unscoped noisy call draws from the engines' shared
        generator, as far on the plan as on the walk, so successive
        calls sample different read noise; call by call, plan and walk
        of same-seed copies agree."""
        plan, walk = self._build(small_xbar, 7), self._build(small_xbar, 7)
        x = layer_inputs(small_xbar, plan, 6, rng)
        plan_stream = plan._rng.bit_generator
        walk_stream = walk._rng.bit_generator
        outs = []
        for _ in range(2):
            before = plan_stream.state
            out = self._run(plan, x)
            assert plan_stream.state != before
            np.testing.assert_array_equal(out, self._run(walk, x, True))
            assert plan_stream.state == walk_stream.state
            outs.append(out)
        assert not np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("walk", [False, True], ids=["fused", "walk"])
    def test_scoped_call_leaves_shared_stream(self, small_xbar, rng, walk):
        """Inside :func:`scoped_noise_stream` every read-noise draw, the
        plan's stack and the walked cells alike, comes from the scoped
        stream: the shared generator stays put, and the call equals one
        made after resetting the shared generator to the stream's
        seed."""
        programmed = self._build(small_xbar, 7)
        x = layer_inputs(small_xbar, programmed, 6, rng)
        shared = programmed._rng.bit_generator
        before = shared.state
        with scoped_noise_stream(programmed.noise_stream(3)):
            scoped = self._run(programmed, x, walk)
        assert shared.state == before
        shared.state = programmed.noise_stream(3).bit_generator.state
        reset = self._run(programmed, x, walk)
        np.testing.assert_array_equal(scoped, reset)


class _YieldingCounter:
    """A counter attribute whose every read yields the GIL, so an
    unguarded ``+=`` on it loses increments to racing threads almost
    surely, while a guarded one still counts exactly."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.slot]
        time.sleep(0)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


class _YieldingEngine(CrossbarMVMEngine):
    mvm_invocations = _YieldingCounter()
    sa_conversions = _YieldingCounter()


class TestConcurrentWalks:
    def test_racing_walks_lose_no_counter_increment(self, small_xbar):
        """Replica threads walk one shared copy at once; every engine's
        ``mvm_invocations`` and ``sa_conversions`` count each walk."""

        def grid():
            weights = np.random.default_rng(5)
            return make_grid(small_xbar, [24, 8], [16, 5], weights)

        layer = ProgrammedLayer(grid(), None)
        engines = [e for row in layer.tiles for e in row]
        for engine in engines:
            engine.__class__ = _YieldingEngine
            engine.mvm_invocations = 0
            engine.sa_conversions = 0
        codes = make_codes(small_xbar, layer, 3, np.random.default_rng(6))
        once = ProgrammedLayer(grid(), None)
        once.mvm_batch(codes, with_noise=False)
        workers, rounds = 4, 50

        def walk():
            for _ in range(rounds):
                layer.mvm_batch(codes, with_noise=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        singles = [e for row in once.tiles for e in row]
        for engine, single in zip(engines, singles):
            assert single.mvm_invocations > 0
            assert engine.mvm_invocations == (
                workers * rounds * single.mvm_invocations
            )
            assert engine.sa_conversions == (
                workers * rounds * single.sa_conversions
            )


class TestExecutorEquivalence:
    """run_functional: fused on == PRIME_FUSED=0 fallback, bitwise."""

    def _both(self, executor, compiler, monkeypatch, topology, net, x):
        plan = compiler.compile(topology)
        monkeypatch.delenv("PRIME_FUSED", raising=False)
        fused = executor.run_functional(net, plan, x)
        monkeypatch.setenv("PRIME_FUSED", "0")
        assert not fused_enabled()
        fallback = executor.run_functional(net, plan, x)
        return fused, fallback

    def test_mlp(
        self, executor, compiler, monkeypatch, trained_tiny_mlp,
        tiny_digit_data,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        fused, fallback = self._both(
            executor, compiler, monkeypatch, topology, net, x_test[:80]
        )
        assert np.array_equal(fused, fallback)

    def test_cnn(
        self, executor, compiler, monkeypatch, trained_tiny_cnn
    ):
        topology, net, x_test, _ = trained_tiny_cnn
        fused, fallback = self._both(
            executor, compiler, monkeypatch, topology, net, x_test[:20]
        )
        assert np.array_equal(fused, fallback)


class TestTelemetryParity:
    """Both paths charge identical hardware firings."""

    def _run(self, executor, compiler, trained_tiny_mlp, x, fused):
        import os

        topology, net = trained_tiny_mlp
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        session = telemetry.enable(fresh=True)
        try:
            if not fused:
                os.environ["PRIME_FUSED"] = "0"
            try:
                executor.run_functional(
                    net, plan, x, programmed=programmed
                )
            finally:
                os.environ.pop("PRIME_FUSED", None)
            invocations = session.metrics.counter_total("mvm.invocations")
            model_time = session.metrics.counter_total("mvm.model_time_ns")
            energy = session.metrics.counter_total("mvm.energy_nj")
        finally:
            telemetry.disable()
        engine_inv = sum(
            e.mvm_invocations
            for layer in programmed
            for row in layer.tiles
            for e in row
        )
        conversions = sum(
            e.sa_conversions
            for layer in programmed
            for row in layer.tiles
            for e in row
        )
        return invocations, model_time, energy, engine_inv, conversions

    def test_counters_match(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        x = x_test[:40]
        fused = self._run(executor, compiler, trained_tiny_mlp, x, True)
        walked = self._run(executor, compiler, trained_tiny_mlp, x, False)
        assert fused == walked
        assert fused[0] > 0 and fused[4] > 0


class TestStreamingChunks:
    """Chunked run_functional output == unchunked, for every size."""

    @pytest.mark.parametrize("chunk_bytes", [1, 30_000, 200_000])
    def test_mlp_chunk_sizes(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data,
        chunk_bytes,
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:80])
        chunked = executor.run_functional(
            net, plan, x_test[:80], chunk_bytes=chunk_bytes
        )
        assert np.array_equal(whole, chunked)

    def test_cnn_chunked(self, executor, compiler, trained_tiny_cnn):
        topology, net, x_test, _ = trained_tiny_cnn
        plan = compiler.compile(topology)
        whole = executor.run_functional(net, plan, x_test[:24])
        chunked = executor.run_functional(
            net, plan, x_test[:24], chunk_bytes=1
        )
        assert np.array_equal(whole, chunked)

    def test_env_var_controls_chunking(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        """A call's ``chunk_bytes`` overrides the default budget, which
        holds the whole batch in one chunk."""
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        assert executor._chunk_samples(plan, 70, None) == 70
        whole = executor.run_functional(net, plan, x_test[:70])
        assert executor._chunk_samples(plan, 70, 40000) < 70
        chunked = executor.run_functional(
            net, plan, x_test[:70], chunk_bytes=40000
        )
        assert np.array_equal(whole, chunked)

    def test_nonpositive_budget_disables_streaming(
        self, executor, compiler, trained_tiny_mlp
    ):
        topology, _ = trained_tiny_mlp
        plan = compiler.compile(topology)
        assert executor._chunk_samples(plan, 33, 0) == 33
        assert executor._chunk_samples(plan, 33, -5) == 33


class TestProgrammedLayerState:
    def test_calibration_resettable(self, small_xbar, rng):
        layer = ProgrammedLayer(
            make_grid(small_xbar, [16], [16], rng), "fmt"
        )
        layer.in_fmt = "frozen"
        layer.output_shift = 3
        layer.reset_calibration()
        assert layer.in_fmt is None and layer.output_shift is None

    def test_run_functional_freezes_calibration_once(
        self, executor, compiler, trained_tiny_mlp, tiny_digit_data
    ):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = compiler.compile(topology)
        programmed = executor.program_network(net, plan)
        executor.run_functional(net, plan, x_test[:70], programmed=programmed)
        frozen = [(p.in_fmt, p.output_shift) for p in programmed]
        assert all(fmt is not None for fmt, _ in frozen)
        # A second batch reuses the exact same calibration objects.
        executor.run_functional(net, plan, x_test[70:90], programmed=programmed)
        assert [(p.in_fmt, p.output_shift) for p in programmed] == frozen


class TestStageBottleneck:
    def test_matches_per_bank_recompute(self, executor):
        class M:
            def __init__(self, bank, copies):
                self.bank, self.copies = bank, copies

        class C:
            def __init__(self, latency_s):
                self.latency_s = latency_s

        class Plan:
            layers = [M(0, 1), M(0, 2), M(1, 1), M(2, 4), M(1, 1)]

        costs = [C(1.0), C(4.0), C(2.0), C(8.0), C(0.5)]
        banks = {m.bank for m in Plan.layers}
        expected = max(
            sum(
                c.latency_s / max(m.copies, 1)
                for m, c in zip(Plan.layers, costs)
                if m.bank == bank
            )
            for bank in banks
        )
        assert executor._stage_bottleneck(Plan, costs) == expected
        assert expected == 3.0  # bank 0: 1.0 + 4.0/2; bank 1: 2.5; bank 2: 2.0


class TestInSituCalibrationCache:
    def _trainer(self, rng):
        from repro.insitu.trainer import InSituTrainer
        from repro.nn.layers import Dense, ReLU
        from repro.nn.network import Sequential

        net = Sequential(
            [Dense(12, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng)]
        )
        return InSituTrainer(net, rng=None)

    def test_shift_cached_across_forwards(self, rng):
        trainer = self._trainer(rng)
        x = rng.random((16, 12))
        trainer.forward(x)
        layer = trainer.layers[0].programmed
        shift = layer.output_shift
        assert shift is not None
        trainer.forward(x)
        assert layer.output_shift == shift

    def test_unchanged_reprogram_keeps_cache(self, rng):
        trainer = self._trainer(rng)
        trainer.forward(rng.random((16, 12)))
        layer = trainer.layers[0]
        shift = layer.programmed.output_shift
        assert layer.program() == 0  # no level moved
        assert layer.programmed.output_shift == shift

    def test_changed_reprogram_invalidates(self, rng):
        trainer = self._trainer(rng)
        trainer.forward(rng.random((16, 12)))
        layer = trainer.layers[0]
        layer.dense.weight += 0.5  # move the shadow weights
        assert layer.program() > 0
        assert layer.programmed.output_shift is None
        # next forward recalibrates against the new cells
        trainer.forward(rng.random((16, 12)))
        assert layer.programmed.output_shift is not None
