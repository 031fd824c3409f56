"""Derived conductances: ideal cell arrays store only their levels.

The contract under test: an array whose conductance is exactly the
linear map of its levels holds no float matrix until something reads
it, and then behaves bit for bit like a twin whose matrix was
materialised up front — through every read, drift, partial write and
the verify loop.  Arrays programmed with variation or carrying a fault
map stay eager, and their seeded conductances equal the values the
eager-only model produced.
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
from repro.device.cell import CellArray
from repro.device.faults import FaultMap
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy

#: Exact programming, read noise on: derived, yet noisy reads draw.
EXACT_WRITES = dataclasses.replace(PT_TIO2_DEVICE, programming_sigma=0.0)
NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
ROWS, COLS = 24, 20
VERIFY = ResiliencePolicy(verify_writes=True)


def _levels(seed: int = 4) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, PT_TIO2_DEVICE.mlc_levels, (ROWS, COLS)
    )


def _twins(seed: int | None = 9, device=EXACT_WRITES, program=True):
    """A derived array and its twin, programmed alike (or both fresh),
    whose matrix is materialised up front.  Their RNGs (if any) start
    in one state."""
    arrays = []
    for _ in range(2):
        rng = None if seed is None else np.random.default_rng(seed)
        array = CellArray(ROWS, COLS, device=device, rng=rng)
        if program:
            array.program_levels(_levels())
        assert array._conductance is None
        arrays.append(array)
    derived, eager = arrays
    eager._stored_conductance()
    assert eager._conductance is not None
    return derived, eager


def _same_state(a: CellArray, b: CellArray) -> None:
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.conductances(), b.conductances())
    assert a.is_ideal == b.is_ideal


class TestWhatStaysDerived:
    @pytest.mark.parametrize(
        "rng, device",
        [(None, PT_TIO2_DEVICE), (0, EXACT_WRITES), (0, NOISE_FREE)],
    )
    def test_exact_writes_hold_levels_only(self, rng, device):
        rng = None if rng is None else np.random.default_rng(rng)
        array = CellArray(ROWS, COLS, device=device, rng=rng)
        assert array._conductance is None
        array.program_levels(_levels())
        assert array._conductance is None and array.is_ideal

    def test_variation_and_faults_stay_eager(self):
        varied = CellArray(
            ROWS, COLS, device=PT_TIO2_DEVICE, rng=np.random.default_rng(0)
        )
        varied.program_levels(_levels())
        assert varied._conductance is not None
        faulted = CellArray(
            ROWS, COLS, device=NOISE_FREE, fault_map=FaultMap.none(ROWS, COLS)
        )
        faulted.program_levels(_levels())
        assert faulted._conductance is not None

    def test_reprogramming_drops_the_matrix(self):
        array = CellArray(ROWS, COLS)
        array.program_levels(_levels())
        array.apply_drift(0.2, np.random.default_rng(1))
        assert array._conductance is not None and not array.is_ideal
        array.program_levels(array.levels)
        assert array._conductance is None and array.is_ideal


class TestDerivedEqualsEager:
    @pytest.mark.parametrize(
        "seed, noise", [(None, False), (9, False), (9, True)]
    )
    def test_reads(self, seed, noise):
        derived, eager = _twins(seed)
        voltages = np.random.default_rng(2).random((3, ROWS))
        for _ in range(2):
            np.testing.assert_array_equal(
                derived.conductances(with_read_noise=noise),
                eager.conductances(with_read_noise=noise),
            )
            np.testing.assert_array_equal(
                derived.bitline_currents(voltages, with_read_noise=noise),
                eager.bitline_currents(voltages, with_read_noise=noise),
            )
        np.testing.assert_array_equal(
            derived.readback_levels(), eager.readback_levels()
        )
        assert derived._conductance is not None

    def test_drift(self):
        derived, eager = _twins()
        for array in (derived, eager):
            array.apply_drift(0.3, np.random.default_rng(3))
        _same_state(derived, eager)
        assert not derived.is_ideal

    @pytest.mark.parametrize(
        "device, program", [(EXACT_WRITES, True), (PT_TIO2_DEVICE, False)]
    )
    def test_region_write(self, device, program):
        # A fresh array is derived (level 0) even on a device whose
        # writes draw variation, as memory-mode row writes find it.
        derived, eager = _twins(device=device, program=program)
        region = np.random.default_rng(5).integers(0, 16, (4, 7))
        for array in (derived, eager):
            array.program_region(3, 5, region)
        _same_state(derived, eager)

    def test_masked_write(self):
        derived, eager = _twins()
        mask = np.random.default_rng(6).random((ROWS, COLS)) < 0.3
        target = _levels(seed=7)
        for array in (derived, eager):
            array.program_masked(mask, target)
        _same_state(derived, eager)

    def test_verify_loop(self):
        derived, eager = _twins()
        mask = np.zeros((ROWS, COLS), dtype=bool)
        mask[2:9, 1:6] = True
        target = _levels(seed=8)
        reports = [
            array.program_masked(mask, target, verify=VERIFY)
            for array in (derived, eager)
        ]
        assert reports[0].retry_rounds == reports[1].retry_rounds == 0
        np.testing.assert_array_equal(reports[0].failed, reports[1].failed)
        _same_state(derived, eager)
        # A verified full write re-derives: the loop reads the matrix
        # once and issues no pulse.
        report = derived.program_levels(_levels(), verify=VERIFY)
        assert report.retried_cells == 0 and not report.failed.any()
        eager.program_levels(_levels())
        _same_state(derived, eager)

    def test_partial_writes_materialise_before_levels_change(
        self, monkeypatch
    ):
        seen = []
        accessor = CellArray._stored_conductance

        def spy(self):
            if self._conductance is None:
                seen.append(self._levels.copy())
            return accessor(self)

        monkeypatch.setattr(CellArray, "_stored_conductance", spy)
        mask = np.zeros((ROWS, COLS), dtype=bool)
        mask[::3, ::2] = True
        writes = [
            lambda a: a.program_region(1, 2, np.full((3, 4), 9)),
            lambda a: a.program_masked(mask, np.full((ROWS, COLS), 11)),
        ]
        for write in writes:
            array = CellArray(ROWS, COLS, device=EXACT_WRITES)
            array.program_levels(_levels())
            before = array.levels
            write(array)
            np.testing.assert_array_equal(seen.pop(), before)
            assert not seen


def test_concurrent_first_reads_share_one_matrix():
    """8 threads make the first read of one derived array at once;
    every thread sees the same matrix, built once."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            array = CellArray(256, 256)
            array.program_levels(
                np.random.default_rng(trial).integers(0, 16, (256, 256))
            )
            gate = threading.Barrier(8)
            results = [None] * 8

            def read(i):
                gate.wait(timeout=30)
                results[i] = array._stored_conductance()

            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            expected = array._ideal_conductance(array._levels)
            assert all(r is results[0] for r in results)
            np.testing.assert_array_equal(results[0], expected)
    finally:
        sys.setswitchinterval(previous)


#: sha256 over every array's conductances and levels of the MLP below,
#: programmed with ``rng=np.random.default_rng(11)``, as the eager-only
#: cell model produced them.
SEEDED_DIGESTS = {
    "variation": (
        "51158b70e867016059e0273202a3e350"
        "9a9eb306afe7c519574d84e329a36e2d"
    ),
    "faults": (
        "01bd3fe1639209d53dae188b68ec13a8"
        "e83451e62a981d40fbc48d16335b75b5"
    ),
    "variation+faults": (
        "94dbf6e894ba4c19917a85b19ffd398f"
        "10e1add93f3238d22a5fbf6b70cc0458"
    ),
}
SEEDED_XBARS = {
    "variation": dict(),
    "faults": dict(
        device=NOISE_FREE, fault_rate_hrs=0.02, fault_rate_lrs=0.02
    ),
    "variation+faults": dict(fault_rate_hrs=0.02, fault_rate_lrs=0.02),
}


@pytest.mark.parametrize("case", sorted(SEEDED_DIGESTS))
def test_seeded_conductances_unchanged(case):
    topology = parse_topology("seeded-mlp", "40-24-6")
    net = topology.build(rng=np.random.default_rng(3))
    config = PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, **SEEDED_XBARS[case]
        ),
        organization=MemoryOrganization(
            subarrays_per_bank=8,
            mats_per_subarray=16,
            mat_rows=32,
            mat_cols=32,
        ),
    )
    plan = PrimeCompiler(config).compile(topology)
    programmed = PrimeExecutor(config).program_network(
        net, plan, rng=np.random.default_rng(11)
    )
    digest = hashlib.sha256()
    for layer in programmed:
        for row in layer.tiles:
            for engine in row:
                for array in (engine.pair.positive, engine.pair.negative):
                    assert array._conductance is not None
                    digest.update(
                        np.ascontiguousarray(
                            array.conductances()
                        ).tobytes()
                    )
                    digest.update(
                        array.levels.astype(np.int64).tobytes()
                    )
    assert digest.hexdigest() == SEEDED_DIGESTS[case]
