"""Stuck-at cells as exact levels.

On a device without programming variation or read noise, a stuck cell
sits exactly at ``g_off`` or ``g_on``, the level lattice's bottom and
top levels, so a faulted array's noise-free counts are integers: the
inputs times the *effective* levels (programmed levels, stuck cells at
0 or ``mlc_levels - 1``).  The per-engine walk must produce exactly
those integers, and the sense amps must truncate exactly them, not an
epsilon-off float from the conductance round trip.  Arrays whose
conductances leave the lattice (variation, drift, wire resistance) and
noisy reads stay on the analog path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import digitise, part_window
from repro.device.faults import FaultMap
from repro.errors import CrossbarError
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


def _faulted_engine(
    rng: np.random.Generator, device=QUIET_DEVICE
) -> CrossbarMVMEngine:
    """A full-height engine whose two halves carry explicit stuck-at
    fault maps, programmed open-loop with random 8-bit weights."""
    params = CrossbarParams(device=device)
    maps = tuple(
        FaultMap.random(params.rows, params.cols, RATE, RATE, rng)
        for _ in range(2)
    )
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(params, rng=rng, fault_maps=maps)
    w_max = (1 << params.effective_weight_bits) - 1
    engine.program(rng.integers(-w_max, w_max + 1, (params.rows, COLS)))
    return engine


def _effective(array: CrossbarArray) -> np.ndarray:
    """The levels an array's cells hold, from its fault map alone."""
    levels = array.cells.levels.astype(np.int64)
    faults = array.cells.fault_map
    levels[faults.stuck_hrs] = 0
    levels[faults.stuck_lrs] = array.params.device.mlc_levels - 1
    return levels


def _signed_effective(pair: DifferentialPair) -> np.ndarray:
    return _effective(pair.positive) - _effective(pair.negative)


def _codes(engine: CrossbarMVMEngine, rng) -> np.ndarray:
    return rng.integers(0, 1 << engine.spec.pin, (BATCH, engine.rows_used))


def test_faulted_pair_counts_are_exact_integers(rng):
    engine = _faulted_engine(rng)
    pair = engine.pair
    assert pair.positive.cells.fault_map.fault_count > 0
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
            array.cells.effective_levels, _effective(array)
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


def _varied(rng):
    return _faulted_engine(rng, device=PT_TIO2_DEVICE)


def _drifted(rng):
    engine = _faulted_engine(rng)
    for array in (engine.pair.positive, engine.pair.negative):
        array.cells.apply_drift(0.05, rng)
    return engine


def _wired(rng):
    engine = _faulted_engine(rng)
    for array in (engine.pair.positive, engine.pair.negative):
        array.cells.wire_resistance = 2.0
    return engine


def _read_noise(rng):
    device = dataclasses.replace(QUIET_DEVICE, read_noise_sigma=0.02)
    return _faulted_engine(rng, device=device)


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
    rng, monkeypatch, build, with_noise, on_lattice
):
    engine = build(rng)
    pair = engine.pair
    assert pair.positive.cells.on_lattice is on_lattice
    assert pair.negative.cells.on_lattice is on_lattice
    if not on_lattice:
        with pytest.raises(CrossbarError):
            pair.positive.exact_mvm_counts(np.zeros(256, dtype=np.int64))
    exact_calls = []
    exact = CrossbarArray.exact_mvm_counts

    def spy(self, input_levels):
        exact_calls.append(self)
        return exact(self, input_levels)

    monkeypatch.setattr(CrossbarArray, "exact_mvm_counts", spy)
    x = _codes(engine, rng)
    engine.mvm_batch(x, with_noise=with_noise)
    assert exact_calls == []
    if on_lattice:
        # With the read noise off, the same pair counts exactly.
        engine.mvm_batch(x, with_noise=False)
        assert exact_calls == [pair.positive, pair.negative]


def test_lattice_state_tracks_writes(rng):
    faults = FaultMap.random(8, 8, 0.1, 0.1, rng)
    params = CrossbarParams(
        rows=8, cols=8, sense_amps=8, device=QUIET_DEVICE
    )
    array = CrossbarArray(params, rng=rng, fault_map=faults)
    cells = array.cells
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
