"""Seeded end-to-end yield study: accuracy with resilience off vs on.

The sweep here is the acceptance smoke: a trained MLP-S at 0% and 1%
stuck-at faults, resilience off vs on, on the noise-free device.  One
trained reference and one sweep are shared by every assertion
(module-scoped fixtures) because the reference training dominates the
cost.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest

from repro import telemetry
from repro.errors import WorkloadError
from repro.eval.export import export_yield_study
from repro.eval.precision_study import train_reference_network
from repro.eval.yield_study import (
    YieldPoint,
    YieldStudyResult,
    yield_study,
)
from repro.resilience import ResiliencePolicy

pytestmark = pytest.mark.resilience

RATES = (0.0, 0.01)


@pytest.fixture(scope="module")
def reference():
    return train_reference_network(
        "MLP-S", n_train=5000, n_test=300, epochs=20, seed=7
    )


@pytest.fixture(scope="module")
def sweep(reference):
    telemetry.enable()
    try:
        result = yield_study(
            workload="MLP-S",
            fault_rates=RATES,
            samples=96,
            reference=reference,
            seed=7,
        )
        snapshot = telemetry.snapshot()
    finally:
        telemetry.disable()
    return result, snapshot


class TestYieldStudy:
    def test_sweep_shape(self, sweep):
        result, _ = sweep
        assert result.workload == "MLP-S"
        assert result.samples == 96
        assert len(result.points) == 2 * len(RATES)
        assert set(result.curve(True)) == set(RATES)
        assert set(result.curve(False)) == set(RATES)

    def test_fault_free_curves_identical(self, sweep):
        """At rate 0 the verify pass is a no-op: both modes are
        bit-identical, not merely close."""
        result, _ = sweep
        assert result.accuracy(0.0, False) == result.accuracy(0.0, True)

    def test_resilience_recovers_ninety_percent(self, sweep):
        """The headline acceptance: 1% stuck-at with resilience ON
        keeps >= 90% of the fault-free accuracy."""
        result, _ = sweep
        assert result.recovery(0.01) >= 0.9

    def test_open_loop_measurably_degrades(self, sweep):
        result, _ = sweep
        off = result.accuracy(0.01, False)
        assert off < result.clean_accuracy - 0.05
        assert off < result.accuracy(0.01, True) - 0.05

    def test_degradation_reported_for_resilient_points(self, sweep):
        result, _ = sweep
        for p in result.points:
            if p.resilient:
                assert p.degradation is not None
                assert p.degradation["tiles"] > 0
            else:
                assert p.degradation is None
        faulty = next(
            p for p in result.points if p.resilient and p.fault_rate > 0
        )
        assert faulty.degradation["retried_cells"] > 0
        assert faulty.degradation["compensated_cells"] > 0

    def test_telemetry_counters_recorded(self, sweep):
        _, snapshot = sweep
        names = {c["name"] for c in snapshot["counters"]}
        assert "resilience.program.retry" in names
        assert "resilience.program.giveup" in names
        assert "resilience.degraded_tiles" in names

    def test_points_independent_of_rate_order(self, sweep, reference):
        """Each rate's fault maps come from its own task seed, so the
        same rates swept in reverse give the same points."""
        result, _ = sweep
        reverse = yield_study(
            workload="MLP-S",
            fault_rates=RATES[::-1],
            samples=96,
            reference=reference,
            seed=7,
        )

        def keyed(study):
            return {(p.fault_rate, p.resilient): p for p in study.points}

        assert keyed(reverse) == keyed(result)

    def test_missing_point_raises(self, sweep):
        result, _ = sweep
        with pytest.raises(WorkloadError):
            result.accuracy(0.5, True)

    def test_off_policy_rejected(self):
        with pytest.raises(WorkloadError):
            yield_study(policy=ResiliencePolicy(verify_writes=False))


class TestExport:
    def test_export_yield_study_csv(self, tmp_path):
        result = YieldStudyResult(
            workload="MLP-S",
            float_accuracy=0.95,
            samples=96,
            points=[
                YieldPoint(0.01, False, 0.4),
                YieldPoint(0.0, True, 0.9, {"degraded_tiles": 0}),
                YieldPoint(
                    0.01,
                    True,
                    0.88,
                    {"degraded_tiles": 2, "retried_cells": 17},
                ),
                YieldPoint(0.0, False, 0.9),
            ],
        )
        path = tmp_path / "yield.csv"
        export_yield_study(result, path)
        rows = list(csv.reader(path.open()))
        assert rows[0][:3] == ["fault_rate", "resilient", "accuracy"]
        assert rows[1][:3] == ["float", "", "0.9500"]
        # Sorted by (rate, mode); degradation columns only when known.
        assert rows[2][:3] == ["0.0000", "0", "0.9000"]
        assert rows[5][:3] == ["0.0100", "1", "0.8800"]
        assert rows[5][rows[0].index("retried_cells")] == "17"
        assert rows[4][rows[0].index("retried_cells")] == ""
