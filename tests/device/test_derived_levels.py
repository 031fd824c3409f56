"""Derived levels: an ideal engine's cell arrays hold no level matrix.

The contract under test: an exact open-loop write (no
programming-variation draw, no fault map, no endurance tracker) keeps
only the engine's range-checked ``programmed_weights``; each array
builds its level matrix on first read, and from then on behaves bit for
bit like a twin written eagerly through the signed level split —
through every read, drift, partial write, the verify loop and
reprogramming.  Reprogramming an array whose levels its source still
gives returns it to the derived state.  Writes that draw variation,
carry a fault map, count endurance or verify stay eager, with the
seeded conductances the eager-only model produced, and reprogram with
the same draws.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.device.cell import CellArray
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve.dispatcher import WorkerSpec, reprogram_state

#: Exact programming, read noise on: derived, yet noisy reads draw.
EXACT_WRITES = dataclasses.replace(PT_TIO2_DEVICE, programming_sigma=0.0)
NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
VERIFY = ResiliencePolicy(verify_writes=True)


def _params(device=EXACT_WRITES, **faults) -> CrossbarParams:
    return CrossbarParams(
        rows=32, cols=32, sense_amps=8, device=device, **faults
    )


def _weights(seed: int = 4, rows: int = 27, cols: int = 13) -> np.ndarray:
    """Signed 8-bit weights with both signs and every level present."""
    return np.random.default_rng(seed).integers(-255, 256, (rows, cols))


def _arrays(engine: CrossbarMVMEngine) -> tuple[CellArray, CellArray]:
    return engine.pair.positive, engine.pair.negative


def _eager(engine: CrossbarMVMEngine) -> CrossbarMVMEngine:
    """Re-write an engine's pair through the signed level split, which
    stores both level matrices at write time."""
    engine.pair.program_signed_levels(
        engine._signed_level_matrix(engine.programmed_weights, 0)
    )
    assert all(cells._levels is not None for cells in _arrays(engine))
    return engine


def _twins(seed: int | None = 9, device=EXACT_WRITES):
    """A derived engine and its eagerly written twin, programmed with
    the same weights; their RNGs (if any) start in one state."""
    engines = []
    for _ in range(2):
        rng = None if seed is None else np.random.default_rng(seed)
        engine = CrossbarMVMEngine(_params(device), rng=rng)
        engine.program(_weights())
        engines.append(engine)
    derived, eager = engines
    return derived, _eager(eager)


def _same_cells(a: CellArray, b: CellArray) -> None:
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.effective_levels, b.effective_levels)
    np.testing.assert_array_equal(a.conductances(), b.conductances())
    assert a.levels.dtype == b.levels.dtype == np.int16
    assert a.is_ideal == b.is_ideal


class TestWhatStaysDerived:
    def test_fresh_array_holds_no_level_matrix(self):
        array = CellArray(8, 8)
        assert array._levels is None and array._conductance is None
        np.testing.assert_array_equal(
            array.levels, np.zeros((8, 8), dtype=np.int16)
        )

    @pytest.mark.parametrize(
        "rng, device",
        [(None, PT_TIO2_DEVICE), (0, EXACT_WRITES), (0, NOISE_FREE)],
    )
    def test_ideal_program_keeps_only_the_weights(self, rng, device):
        rng = None if rng is None else np.random.default_rng(rng)
        engine = CrossbarMVMEngine(_params(device), rng=rng)
        engine.program(_weights())
        for cells in _arrays(engine):
            assert cells._levels is None and cells._conductance is None
            assert cells.is_ideal
        assert engine.holds_programmed

    def test_a_derived_array_builds_its_levels_once(self, monkeypatch):
        calls = []
        build = CrossbarMVMEngine._array_levels

        def spy(w, sign, **layout):
            calls.append(sign)
            return build(w, sign, **layout)

        monkeypatch.setattr(
            CrossbarMVMEngine, "_array_levels", staticmethod(spy)
        )
        engine = CrossbarMVMEngine(_params())
        engine.program(_weights())
        assert calls == []
        positive, negative = _arrays(engine)
        first = positive._stored_levels()
        assert positive._stored_levels() is first
        positive.conductances()
        assert calls == [1]
        negative.levels
        assert calls == [1, -1]
        # The source stays, for reprogramming, and is not called again.
        assert positive._level_source is not None
        positive.levels, negative.effective_levels
        assert calls == [1, -1]


class TestDerivedEqualsEager:
    @pytest.mark.parametrize(
        "seed, noise", [(None, False), (9, False), (9, True)]
    )
    def test_reads(self, seed, noise):
        derived, eager = _twins(seed)
        voltages = np.random.default_rng(2).random((3, 32))
        for a, b in zip(_arrays(derived), _arrays(eager)):
            for _ in range(2):
                np.testing.assert_array_equal(
                    a.conductances(with_read_noise=noise),
                    b.conductances(with_read_noise=noise),
                )
                np.testing.assert_array_equal(
                    a.bitline_currents(voltages, with_read_noise=noise),
                    b.bitline_currents(voltages, with_read_noise=noise),
                )
            np.testing.assert_array_equal(
                a.readback_levels(), b.readback_levels()
            )
            _same_cells(a, b)
        for with_noise in (False, True):
            for x, y in zip(
                derived.cell_weights(with_noise),
                eager.cell_weights(with_noise),
            ):
                np.testing.assert_array_equal(x, y)

    def test_levels_are_the_signed_split(self):
        derived, eager = _twins(None)
        w = derived.programmed_weights
        positive, negative = _arrays(derived)
        pos, neg = positive.levels, negative.levels
        # Each cell pair holds one sign only, and its halves recompose
        # the weight.
        assert not np.any((pos > 0) & (neg > 0))
        diff = pos.astype(np.int64) - neg
        np.testing.assert_array_equal(
            16 * diff[:27, 0:26:2] + diff[:27, 1:26:2], w
        )
        assert not diff[27:].any() and not diff[:, 26:].any()

    def test_drift(self):
        derived, eager = _twins()
        for engine in (derived, eager):
            for cells in _arrays(engine):
                cells.apply_drift(0.3, np.random.default_rng(3))
        for a, b in zip(_arrays(derived), _arrays(eager)):
            _same_cells(a, b)
            assert not a.is_ideal

    def test_drift_then_reprogram_returns_to_derived(self):
        derived, eager = _twins()
        for engine in (derived, eager):
            layer = ProgrammedLayer([[engine]], None)
            token = layer.token
            layer.apply_drift(0.3, np.random.default_rng(3))
            assert not engine.on_lattice
            layer.reprogram()
            assert layer.token is not token
        for a, b in zip(_arrays(derived), _arrays(eager)):
            assert a._levels is None and a._conductance is None
            assert b._levels is not None
            _same_cells(a, b)
            assert a.is_ideal

    @pytest.mark.parametrize("write", ["region", "masked"])
    def test_partial_write_then_reprogram_keeps_what_was_written(
        self, write
    ):
        derived, eager = _twins()
        region = np.random.default_rng(5).integers(0, 16, (4, 7))
        mask = np.random.default_rng(6).random((32, 32)) < 0.3
        target = np.random.default_rng(7).integers(0, 16, (32, 32))
        for engine in (derived, eager):
            for cells in _arrays(engine):
                cells.levels  # derive, then overwrite part of it
                if write == "region":
                    cells.program_region(3, 5, region)
                else:
                    cells.program_masked(mask, target)
                assert cells._level_source is None
                cells.reprogram()
        for a, b in zip(_arrays(derived), _arrays(eager)):
            if write == "region":
                np.testing.assert_array_equal(a.levels[3:7, 5:12], region)
            else:
                np.testing.assert_array_equal(a.levels[mask], target[mask])
            _same_cells(a, b)

    def test_region_write(self):
        derived, eager = _twins()
        region = np.random.default_rng(5).integers(0, 16, (4, 7))
        for engine in (derived, eager):
            for cells in _arrays(engine):
                cells.program_region(3, 5, region)
        for a, b in zip(_arrays(derived), _arrays(eager)):
            _same_cells(a, b)

    def test_masked_write(self):
        derived, eager = _twins()
        mask = np.random.default_rng(6).random((32, 32)) < 0.3
        target = np.random.default_rng(7).integers(0, 16, (32, 32))
        for engine in (derived, eager):
            for cells in _arrays(engine):
                cells.program_masked(mask, target)
        for a, b in zip(_arrays(derived), _arrays(eager)):
            _same_cells(a, b)

    def test_verify_loop(self):
        derived, eager = _twins()
        mask = np.zeros((32, 32), dtype=bool)
        mask[2:9, 1:6] = True
        target = np.random.default_rng(8).integers(0, 16, (32, 32))
        for a, b in zip(_arrays(derived), _arrays(eager)):
            reports = [
                cells.program_masked(mask, target, verify=VERIFY)
                for cells in (a, b)
            ]
            assert reports[0].retry_rounds == reports[1].retry_rounds
            np.testing.assert_array_equal(
                reports[0].failed, reports[1].failed
            )
            _same_cells(a, b)

    def test_analog_mvm(self):
        derived, eager = _twins(None)
        inputs = np.random.default_rng(10).integers(0, 64, (5, 27))
        np.testing.assert_array_equal(
            derived.mvm_batch(inputs, with_noise=False),
            eager.mvm_batch(inputs, with_noise=False),
        )


def _deployment(eager: bool, seed: int = 5):
    """A small seeded MLP deployed on exact-write crossbars, either
    left derived or with every engine re-written eagerly."""
    topology = parse_topology("derived-mlp", "40-24-6")
    net = topology.build(rng=np.random.default_rng(3))
    config = PrimeConfig(
        crossbar=_params(),
        organization=MemoryOrganization(
            subarrays_per_bank=8,
            mats_per_subarray=16,
            mat_rows=32,
            mat_cols=32,
        ),
    )
    plan = PrimeCompiler(config).compile(topology)
    executor = PrimeExecutor(config)
    programmed = executor.program_network(
        net, plan, rng=np.random.default_rng(seed)
    )
    if eager:
        for layer in programmed:
            for row in layer.tiles:
                for engine in row:
                    _eager(engine)
    spec = WorkerSpec(network=net, plan=plan, config=config, seed=seed)
    return spec, executor, programmed


def _all_cells(programmed):
    return [
        cells
        for layer in programmed
        for row in layer.tiles
        for engine in row
        for cells in _arrays(engine)
    ]


def test_reprogram_state_after_drift_matches_eager():
    x = np.random.default_rng(1).random((16, 40))
    runs = []
    for eager in (False, True):
        spec, executor, programmed = _deployment(eager)
        before = executor.run_functional(
            spec.network, spec.plan, x, programmed=programmed
        )
        drift = np.random.default_rng(2)
        for cells in _all_cells(programmed):
            cells.apply_drift(0.2, drift)
        for layer in programmed:
            layer.invalidate()
        reprogram_state(spec, programmed)
        after = executor.run_functional(
            spec.network, spec.plan, x, programmed=programmed
        )
        np.testing.assert_array_equal(before, after)
        if not eager:
            # Reprogramming returned every exact array to its source.
            assert all(
                c._levels is None and c._conductance is None
                for c in _all_cells(programmed)
            )
        runs.append((before, _all_cells(programmed)))
    (derived_out, derived), (eager_out, eager) = runs
    np.testing.assert_array_equal(derived_out, eager_out)
    for a, b in zip(derived, eager):
        _same_cells(a, b)


def test_derived_deployment_walk_equals_its_plan(monkeypatch):
    """Fused serving reads no cell, so the levels stay underived; the
    ``PRIME_FUSED=0`` walk then builds them and counts the same."""
    x = np.random.default_rng(1).random((16, 40))
    spec, executor, programmed = _deployment(eager=False)
    fused = executor.run_functional(
        spec.network, spec.plan, x, programmed=programmed
    )
    assert all(cells._levels is None for cells in _all_cells(programmed))
    monkeypatch.setenv("PRIME_FUSED", "0")
    walked = executor.run_functional(
        spec.network, spec.plan, x, programmed=programmed
    )
    np.testing.assert_array_equal(fused, walked)
    assert all(
        cells._levels is not None for cells in _all_cells(programmed)
    )


def test_concurrent_first_reads_build_one_matrix(monkeypatch):
    """8 threads make the first read of one derived array at once;
    every thread sees the same level matrix, built once."""
    calls = []
    build = CrossbarMVMEngine._array_levels

    def counted(w, sign, **layout):
        calls.append(sign)
        return build(w, sign, **layout)

    monkeypatch.setattr(
        CrossbarMVMEngine, "_array_levels", staticmethod(counted)
    )
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            engine = CrossbarMVMEngine(CrossbarParams())
            engine.program(
                np.random.default_rng(trial).integers(-255, 256, (256, 128))
            )
            cells = engine.pair.negative
            gate = threading.Barrier(8)
            results = [None] * 8

            def read(i):
                gate.wait(timeout=30)
                results[i] = cells._stored_levels()

            calls.clear()
            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert calls == [-1]
            assert all(r is results[0] for r in results)
            np.testing.assert_array_equal(
                results[0],
                engine.pair._pos_neg(
                    engine._signed_level_matrix(engine.programmed_weights, 0)
                )[1],
            )
    finally:
        sys.setswitchinterval(previous)


#: sha256 over both arrays' conductances and levels of the engines
#: :func:`_seeded_engines` programs, as the eager-only cell model
#: produced them.
SEEDED_DIGESTS = {
    "endurance": (
        "ce9a46750bdd76fcc470873324c80f75"
        "2e2688735fdb0f91a84c56b8b1f541b9"
    ),
    "faults": (
        "6bcf9a51399d177472cb6aca52a8f0a9"
        "4f2759ce9ef6f6b14e0ea304ac7a72aa"
    ),
    "variation": (
        "e9f7e084e60601e75a2f82817ad39a87"
        "0f5ba7d48211cb68c34e66d2e40b8ecd"
    ),
    "verify": (
        "2a5c81632748a062aed3b16313bd93f8"
        "03d86cbdc4e7ca37e3f16f3e6663028f"
    ),
}
SEEDED_CASES = {
    "variation": (dict(device=PT_TIO2_DEVICE), False, None),
    "faults": (
        dict(device=NOISE_FREE, fault_rate_hrs=0.02, fault_rate_lrs=0.02),
        False,
        None,
    ),
    "endurance": (dict(device=NOISE_FREE), True, None),
    "verify": (
        dict(device=PT_TIO2_DEVICE, fault_rate_hrs=0.01, fault_rate_lrs=0.01),
        False,
        VERIFY,
    ),
}


def _seeded_engines(case: str) -> list[CrossbarMVMEngine]:
    """Three engines sharing one seeded generator, programmed in turn."""
    faults, track, policy = SEEDED_CASES[case]
    params = _params(**faults)
    rng = np.random.default_rng(11)
    engines = []
    for k in range(3):
        engine = CrossbarMVMEngine(params, rng=rng, track_endurance=track)
        engine.program(_weights(seed=k), resilience=policy)
        engines.append(engine)
    return engines


@pytest.mark.parametrize("case", sorted(SEEDED_DIGESTS))
def test_drawing_or_counting_writes_stay_eager(case):
    digest = hashlib.sha256()
    for engine in _seeded_engines(case):
        for cells in _arrays(engine):
            assert cells._levels is not None
            assert cells._conductance is not None or case == "endurance"
            digest.update(np.ascontiguousarray(cells.conductances()).tobytes())
            digest.update(cells.levels.astype(np.int64).tobytes())
    assert digest.hexdigest() == SEEDED_DIGESTS[case]


#: The same digest after seeded drift and a rewrite of every array from
#: the levels it holds, as the eager-only cell model rewrote them; in
#: the ``verify`` case through the verify loop over the engine's
#: programmed region (``program_levels(levels, verify, verify_mask)``
#: on the eager-only model).
REPROGRAMMED_DIGESTS = {
    "endurance": (
        "ce9a46750bdd76fcc470873324c80f75"
        "2e2688735fdb0f91a84c56b8b1f541b9"
    ),
    "faults": (
        "6bcf9a51399d177472cb6aca52a8f0a9"
        "4f2759ce9ef6f6b14e0ea304ac7a72aa"
    ),
    "variation": (
        "38d45dbce4608ee631405ffd35211b78"
        "356d2e37d325a673dfbe21c14a9291e4"
    ),
    "verify": (
        "93ed2028c1d1256a9dd35736de80bad4"
        "0d6a75fb3253623e990de5e7a5bee317"
    ),
}


@pytest.mark.parametrize("case", sorted(REPROGRAMMED_DIGESTS))
def test_drawing_or_counting_arrays_reprogram_with_the_same_draws(case):
    _, _, policy = SEEDED_CASES[case]
    engines = _seeded_engines(case)
    drift = np.random.default_rng(3)
    for engine in engines:
        layer = ProgrammedLayer([[engine]], None)
        layer.apply_drift(0.3, drift)
        layer.reprogram(policy)
    digest = hashlib.sha256()
    for engine in engines:
        for cells in _arrays(engine):
            assert cells._levels is not None
            digest.update(np.ascontiguousarray(cells.conductances()).tobytes())
            digest.update(cells.levels.astype(np.int64).tobytes())
            if case == "endurance":
                assert cells.endurance.total_writes == 2 * 32 * 32
    assert digest.hexdigest() == REPROGRAMMED_DIGESTS[case]
