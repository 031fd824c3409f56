"""Stuck-at cells as exact levels.

On a device without programming variation or read noise, a stuck cell
sits exactly at ``g_off`` or ``g_on``, the level lattice's bottom and
top levels, so a faulted array's noise-free counts are integers: the
inputs times the *effective* levels (programmed levels, stuck cells at
0 or ``mlc_levels - 1``).  The per-engine walk must produce exactly
those integers, and the sense amps must truncate exactly them, not an
epsilon-off float from the conductance round trip.  Every read counts
``inputs @ count_weights(with_noise)``: arrays whose conductances leave
the lattice (variation, drift, wire resistance) and noisy reads count
each cell pair's ``(G+ - G-) / g_step`` under the read's own draw, the
difference of the two arrays' analog currents up to float rounding.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import digitise, part_window
from repro.device.cell import CellArray, scoped_noise_stream
from repro.device.faults import FaultMap
from repro.params.crossbar import CrossbarParams
from repro.params.reram import PT_TIO2_DEVICE
from repro.precision.composing import split_unsigned

#: No programming variation, no read noise: stuck cells stay on the
#: level lattice.
QUIET_DEVICE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
#: Stuck-at-HRS and stuck-at-LRS rates per array half.
RATE = 0.005
BATCH = 64
COLS = 64


#: The quiet device with read noise: its arrays stay on the lattice.
NOISY_DEVICE = dataclasses.replace(QUIET_DEVICE, read_noise_sigma=0.02)


def _faulted_engine(
    rng: np.random.Generator, device=QUIET_DEVICE, rate=RATE
) -> CrossbarMVMEngine:
    """A full-height engine whose two halves carry explicit stuck-at
    fault maps (none at ``rate`` 0), programmed open-loop with random
    8-bit weights."""
    params = CrossbarParams(device=device)
    maps = tuple(
        FaultMap.random(params.rows, params.cols, rate, rate, rng)
        for _ in range(2)
    )
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(params, rng=rng, fault_maps=maps)
    w_max = (1 << params.effective_weight_bits) - 1
    engine.program(rng.integers(-w_max, w_max + 1, (params.rows, COLS)))
    return engine


def _effective(array: CellArray) -> np.ndarray:
    """The levels an array's cells hold, from its fault map alone."""
    levels = array.levels.astype(np.int64)
    faults = array.fault_map
    levels[faults.stuck_hrs] = 0
    levels[faults.stuck_lrs] = array.device.mlc_levels - 1
    return levels


def _signed_effective(pair: DifferentialPair) -> np.ndarray:
    return _effective(pair.positive) - _effective(pair.negative)


def _codes(engine: CrossbarMVMEngine, rng) -> np.ndarray:
    return rng.integers(0, 1 << engine.spec.pin, (BATCH, engine.rows_used))


def test_faulted_pair_counts_are_exact_integers(rng):
    engine = _faulted_engine(rng)
    pair = engine.pair
    assert pair.positive.fault_map.fault_count > 0
    assert engine.on_lattice and not engine.holds_programmed
    x = rng.integers(
        0, engine.params.input_levels, (BATCH, engine.params.rows)
    )
    expected = x @ _signed_effective(pair)
    counts = pair.analog_mvm_counts(x, with_noise=False)
    assert np.array_equal(counts, expected)
    # The noise flag is moot on a device without read noise.
    assert np.array_equal(pair.analog_mvm_counts(x), expected)
    for array in (pair.positive, pair.negative):
        assert np.array_equal(
            array.effective_levels, _effective(array)
        )


@pytest.mark.parametrize("shift", [6, 8, 10])
def test_faulted_engine_digitises_exact_counts(rng, shift):
    engine = _faulted_engine(rng)
    x = _codes(engine, rng)
    signed = _signed_effective(engine.pair)
    halves = split_unsigned(x, engine.spec.pin)
    counts = np.stack([half @ signed for half in halves])[..., : 2 * COLS]
    # [input half, batch, column, weight half]: even bitlines carry the
    # high weight halves.
    parts = counts.reshape(counts.shape[:-1] + (COLS, 2))
    pre, post = part_window(engine.spec, shift)
    grid = (2, 1, 1, 2)
    expected = digitise(
        parts, pre.reshape(grid), post.reshape(grid), engine.spec.po
    ).sum(axis=(0, -1))
    out = engine.mvm_batch(x, output_shift=shift)
    assert np.array_equal(out, expected)


def _ideal(rng, device=QUIET_DEVICE):
    return _faulted_engine(rng, device=device, rate=0.0)


def _stuck(rng, device=QUIET_DEVICE):
    return _faulted_engine(rng, device=device)


def _varied(rng, device=QUIET_DEVICE):
    device = dataclasses.replace(
        device, programming_sigma=PT_TIO2_DEVICE.programming_sigma
    )
    return _faulted_engine(rng, device=device)


def _drifted(rng, device=QUIET_DEVICE):
    engine = _faulted_engine(rng, device=device)
    for array in (engine.pair.positive, engine.pair.negative):
        array.apply_drift(0.05, rng)
    return engine


def _wired(rng, device=QUIET_DEVICE):
    engine = _faulted_engine(rng, device=device)
    for array in (engine.pair.positive, engine.pair.negative):
        array.wire_resistance = 2.0
    return engine


def _read_noise(rng):
    return _faulted_engine(rng, device=NOISY_DEVICE)


@pytest.mark.parametrize(
    "build, with_noise, on_lattice",
    [
        (_varied, False, False),
        (_drifted, False, False),
        (_wired, False, False),
        (_read_noise, True, True),
    ],
    ids=["variation", "drift", "wire-resistance", "read-noise"],
)
def test_off_lattice_reads_take_the_analog_path(
    rng, build, with_noise, on_lattice
):
    """An off-lattice or noisy read takes the analog path: it counts
    ``inputs @ count_weights(with_noise)``, each cell pair's ``(G+ -
    G-) / g_step`` under the read's own draw, on the pair and through
    the engine's sense amps, bit for bit, and its counts leave the
    integer lattice.  An on-lattice pair read without read noise counts
    the exact integers of its effective levels."""
    engine = build(rng)
    pair = engine.pair
    assert pair.positive.on_lattice is on_lattice
    assert pair.negative.on_lattice is on_lattice
    x = rng.integers(
        0, engine.params.input_levels, (BATCH, engine.params.rows)
    )
    with scoped_noise_stream(np.random.default_rng(5)):
        counts = pair.analog_mvm_counts(x, with_noise=with_noise)
    with scoped_noise_stream(np.random.default_rng(5)):
        weights = pair.count_weights(with_noise)
    assert weights.dtype == np.float64
    assert np.array_equal(counts, x @ weights)
    assert not np.array_equal(counts, np.trunc(counts))
    # The engine senses the same counts: both drive phases in one read.
    codes = _codes(engine, rng)
    halves = split_unsigned(codes, engine.spec.pin)
    padded = np.zeros((2, BATCH, engine.params.rows))
    padded[:, :, : engine.rows_used] = halves
    with scoped_noise_stream(np.random.default_rng(6)):
        out = engine.mvm_batch(codes, with_noise=with_noise)
    with scoped_noise_stream(np.random.default_rng(6)):
        parts = (padded @ pair.count_weights(with_noise))[..., : 2 * COLS]
    parts = parts.reshape(parts.shape[:-1] + (COLS, 2))
    pre, post = part_window(engine.spec, engine.spec.target_shift)
    grid = (2, 1, 1, 2)
    expected = digitise(
        parts, pre.reshape(grid), post.reshape(grid), engine.spec.po
    ).sum(axis=(0, -1))
    assert np.array_equal(out, expected)
    if on_lattice:
        # With the read noise off, the same pair counts exactly.
        quiet = pair.analog_mvm_counts(x, with_noise=False)
        assert np.array_equal(quiet, x @ _signed_effective(pair))
        assert not np.array_equal(quiet, counts)


#: Pair states for the current-domain consistency check.
PAIR_STATES = {
    "ideal": _ideal,
    "stuck-at": _stuck,
    "variation": _varied,
    "drift": _drifted,
    "wire-resistance": _wired,
}


@pytest.mark.parametrize("with_noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("state", sorted(PAIR_STATES))
def test_pair_read_is_the_difference_of_array_currents(
    rng, state, with_noise
):
    """The pair's read equals the positive array's bitline currents
    minus the negative array's (each with the HRS baseline included),
    in units of the unit current ``v_step * g_step``, up to float
    rounding, with noise off and, from equal generator states, on: the
    two formulas read one device state."""
    device = NOISY_DEVICE if with_noise else QUIET_DEVICE
    pair = PAIR_STATES[state](rng, device=device).pair
    x = rng.integers(0, pair.params.input_levels, (BATCH, pair.params.rows))
    v_step = device.v_read / (pair.params.input_levels - 1)
    g_step = (device.g_on - device.g_off) / (device.mlc_levels - 1)

    def counts_of(array):
        currents = array.bitline_currents(
            x * v_step, with_read_noise=with_noise
        )
        return currents / (v_step * g_step)

    with scoped_noise_stream(np.random.default_rng(7)):
        counts = pair.analog_mvm_counts(x, with_noise=with_noise)
    with scoped_noise_stream(np.random.default_rng(7)):
        pos = counts_of(pair.positive)
        neg = counts_of(pair.negative)
    # Each current carries the HRS baseline; the difference cancels it
    # up to rounding on the baseline's scale.
    np.testing.assert_allclose(
        counts, pos - neg, rtol=0.0, atol=1e-9 * np.abs(pos).max()
    )
    assert np.abs(counts).max() > 1.0
    with scoped_noise_stream(np.random.default_rng(8)):
        other = pair.analog_mvm_counts(x, with_noise=with_noise)
    assert np.array_equal(other, counts) is not with_noise


def test_lattice_state_tracks_writes(rng):
    faults = FaultMap.random(8, 8, 0.1, 0.1, rng)
    cells = CellArray(8, 8, device=QUIET_DEVICE, rng=rng, fault_map=faults)
    # Stuck from the start: an unwritten array already reads its faults.
    np.testing.assert_allclose(
        cells.readback_levels(), cells.effective_levels, atol=1e-9
    )
    assert cells.on_lattice and not cells.is_ideal
    cells.program_levels(rng.integers(0, 16, (8, 8)))
    np.testing.assert_allclose(
        cells.readback_levels(), cells.effective_levels, atol=1e-9
    )
    assert cells.on_lattice
    cells.apply_drift(0.1, rng)
    assert not cells.on_lattice
    cells.program_levels(cells.levels)
    assert cells.on_lattice
