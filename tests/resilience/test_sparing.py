"""Fault-aware mapping: column sparing, tile remap, zero-masking."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.pair import DifferentialPair
from repro.device.faults import FaultMap
from repro.errors import (
    ConfigurationError,
    CrossbarError,
    MappingError,
)
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy

pytestmark = pytest.mark.resilience

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
SMALL_ORG = MemoryOrganization(
    subarrays_per_bank=8,
    mats_per_subarray=16,
    mat_rows=32,
    mat_cols=32,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _small_params(**overrides) -> CrossbarParams:
    kw = dict(rows=32, cols=32, sense_amps=8, device=NOISE_FREE)
    kw.update(overrides)
    return CrossbarParams(**kw)


def _small_config(policy: ResiliencePolicy, **xbar) -> PrimeConfig:
    return PrimeConfig(
        crossbar=_small_params(**xbar),
        organization=SMALL_ORG,
        resilience=policy,
    )


def _broken_column_engine(
    params: CrossbarParams, bad_col: int, rows_used: int
) -> CrossbarMVMEngine:
    """An engine whose logical column ``bad_col`` is unrepairable: the
    positive hi bitline is stuck at LRS while its negative complement
    is stuck at HRS, so differential compensation has nothing to move."""
    pos = FaultMap.none(params.rows, params.cols)
    neg = FaultMap.none(params.rows, params.cols)
    pos.stuck_lrs[:rows_used, 2 * bad_col] = True
    neg.stuck_hrs[:rows_used, 2 * bad_col] = True
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(params, fault_maps=(pos, neg))
    return engine


def _clean_analog_engine(params: CrossbarParams) -> CrossbarMVMEngine:
    """A fault-free engine forced onto the analog read path (empty
    fault maps defeat the exact integer fast path) so its outputs are
    directly comparable to a spared engine's."""
    engine = CrossbarMVMEngine(params)
    engine.pair = DifferentialPair(
        params,
        fault_maps=(
            FaultMap.none(params.rows, params.cols),
            FaultMap.none(params.rows, params.cols),
        ),
    )
    return engine


def _weights(rng, rows, cols, bad_col):
    w = rng.integers(-255, 256, size=(rows, cols))
    # Small weights in the broken column leave the hi half at 0, so the
    # stuck-at-LRS bitline shows the full per-cell error.
    w[:, bad_col] = rng.integers(-15, 16, size=rows)
    return w


class TestColumnSparing:
    def test_broken_column_routed_to_spare(self, rng):
        params = _small_params()
        policy = ResiliencePolicy(verify_writes=True, spare_columns=2)
        w = _weights(rng, 16, 6, bad_col=3)
        engine = _broken_column_engine(params, bad_col=3, rows_used=16)
        report = engine.program(w, resilience=policy)
        assert engine.spared_columns == 1
        assert engine.slots_used == 7  # six logical columns + one spare
        assert not engine.degraded
        assert engine.masked_columns == 0
        assert not report.clean
        clean = _clean_analog_engine(params)
        clean.program(w)
        inputs = rng.integers(0, 64, size=(5, 16))
        np.testing.assert_array_equal(
            engine.mvm_batch(inputs, with_noise=False),
            clean.mvm_batch(inputs, with_noise=False),
        )
        # Single-vector path goes through the same gather.
        np.testing.assert_array_equal(
            engine.mvm(inputs[0], with_noise=False),
            clean.mvm(inputs[0], with_noise=False),
        )

    def test_no_spares_masks_column_to_zero(self, rng):
        params = _small_params()
        policy = ResiliencePolicy(
            verify_writes=True, spare_columns=0, mask_error_limit=1000.0
        )
        w = _weights(rng, 16, 6, bad_col=3)
        engine = _broken_column_engine(params, bad_col=3, rows_used=16)
        telemetry.enable()
        engine.program(w, resilience=policy)
        assert engine.degraded
        assert engine.masked_columns == 1
        assert engine.spared_columns == 0
        assert telemetry.counter_total("resilience.dead_columns") == 1
        assert np.all(engine.programmed_weights[:, 3] == 0)
        clean = _clean_analog_engine(params)
        clean.program(w)
        inputs = rng.integers(0, 64, size=(5, 16))
        out = engine.mvm_batch(inputs, with_noise=False)
        ref = clean.mvm_batch(inputs, with_noise=False)
        assert np.all(out[:, 3] == 0)
        keep = [c for c in range(6) if c != 3]
        np.testing.assert_array_equal(out[:, keep], ref[:, keep])

    def test_healthy_columns_consume_no_spares(self, rng):
        params = _small_params()
        policy = ResiliencePolicy(verify_writes=True, spare_columns=4)
        engine = CrossbarMVMEngine(params)
        report = engine.program(
            rng.integers(-255, 256, size=(16, 6)), resilience=policy
        )
        assert report.clean
        assert engine.spared_columns == 0
        assert engine.slots_used == engine.cols_used == 6
        assert not engine.degraded


class TestVerifyBitIdentity:
    def test_verified_program_matches_open_loop_on_clean_device(self, rng):
        """The acceptance no-op: on fault-free noise-free arrays the
        resilience path produces bit-identical outputs."""
        params = _small_params()
        w = rng.integers(-255, 256, size=(16, 8))
        inputs = rng.integers(0, 64, size=(7, 16))
        open_loop = CrossbarMVMEngine(params)
        open_loop.program(w)
        verified = CrossbarMVMEngine(params)
        report = verified.program(
            w,
            resilience=ResiliencePolicy(
                verify_writes=True, spare_columns=2
            ),
        )
        assert report.clean
        np.testing.assert_array_equal(
            verified.mvm_batch(inputs, with_noise=False),
            open_loop.mvm_batch(inputs, with_noise=False),
        )


class TestFaultRateKnobs:
    def test_config_rates_build_fault_maps(self):
        params = _small_params(fault_rate_hrs=0.05, fault_rate_lrs=0.05)
        engine = CrossbarMVMEngine(params, rng=np.random.default_rng(0))
        assert engine.pair.positive.fault_map is not None
        assert engine.pair.positive.fault_map.fault_count > 0
        # Independent draws per array half.
        pos = engine.pair.positive.fault_map
        neg = engine.pair.negative.fault_map
        assert not np.array_equal(pos.stuck_hrs, neg.stuck_hrs)

    def test_fault_rates_require_rng(self):
        params = _small_params(fault_rate_hrs=0.01)
        with pytest.raises(CrossbarError):
            CrossbarMVMEngine(params)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            _small_params(fault_rate_hrs=-0.1)
        with pytest.raises(ConfigurationError):
            _small_params(fault_rate_hrs=0.7, fault_rate_lrs=0.7)


class TestPlanSparing:
    TOPOLOGY = parse_topology("tiny", "24-20-6")

    def test_compiler_reserves_spare_columns(self):
        policy = ResiliencePolicy(verify_writes=True, spare_columns=4)
        config = _small_config(policy)
        plan = PrimeCompiler(config).compile(self.TOPOLOGY)
        logical = config.crossbar.logical_cols
        assert plan.tile_cols == logical - 4
        assert plan.spare_columns == 4
        plan.validate()
        for m in plan.weight_layers:
            assert m.col_blocks >= -(-m.cols // plan.tile_cols)

    def test_validate_catches_underprovisioned_plan(self):
        config = _small_config(
            ResiliencePolicy(verify_writes=True, spare_columns=4)
        )
        plan = PrimeCompiler(config).compile(self.TOPOLOGY)
        thin = dataclasses.replace(plan, tile_cols=1)
        with pytest.raises(MappingError):
            thin.validate()

    def test_config_rejects_overlarge_budgets(self):
        with pytest.raises(ConfigurationError):
            _small_config(
                ResiliencePolicy(verify_writes=True, spare_columns=16)
            )
        with pytest.raises(ConfigurationError):
            _small_config(
                ResiliencePolicy(
                    verify_writes=True, spare_pairs_per_bank=64
                )
            )


class TestExecutorDegradation:
    TOPOLOGY = parse_topology("tiny", "24-20-6")

    def test_program_network_surfaces_summary(self):
        policy = ResiliencePolicy(
            verify_writes=True, spare_columns=2, spare_pairs_per_bank=2
        )
        config = _small_config(
            policy, fault_rate_hrs=0.01, fault_rate_lrs=0.01
        )
        executor = PrimeExecutor(config)
        plan = PrimeCompiler(config).compile(self.TOPOLOGY)
        net = self.TOPOLOGY.build(rng=np.random.default_rng(2))
        telemetry.enable()
        executor.program_network(
            net, plan, rng=np.random.default_rng(3)
        )
        summary = executor.last_degradation
        assert summary is not None
        assert summary.workload == "tiny"
        assert summary.tiles == sum(
            m.row_blocks * m.col_blocks for m in plan.weight_layers
        )
        assert summary.retried_cells > 0
        names = {c["name"] for c in telemetry.snapshot()["counters"]}
        assert "resilience.degraded_tiles" in names

    def test_remap_consumes_spare_pair_budget(self):
        policy = ResiliencePolicy(
            verify_writes=True,
            spare_columns=0,
            spare_pairs_per_bank=3,
            column_error_limit=100.0,
            mask_error_limit=100.0,
        )
        config = _small_config(
            policy, fault_rate_hrs=0.05, fault_rate_lrs=0.05
        )
        executor = PrimeExecutor(config)
        plan = PrimeCompiler(config).compile(self.TOPOLOGY)
        net = self.TOPOLOGY.build(rng=np.random.default_rng(2))
        telemetry.enable()
        executor.program_network(
            net, plan, rng=np.random.default_rng(3)
        )
        summary = executor.last_degradation
        assert summary.remapped_tiles >= 1
        assert telemetry.counter_total("resilience.tile_remaps") == (
            summary.remapped_tiles
        )

    def test_open_loop_run_reports_nothing(self):
        config = _small_config(ResiliencePolicy())
        executor = PrimeExecutor(config)
        plan = PrimeCompiler(config).compile(self.TOPOLOGY)
        net = self.TOPOLOGY.build(rng=np.random.default_rng(2))
        executor.program_network(net, plan)
        assert executor.last_degradation is None

    def test_fault_free_functional_run_bit_identical(self):
        """Enabling resilience on clean arrays must not change a single
        output bit (and run_functional surfaces a clean summary)."""
        net = self.TOPOLOGY.build(rng=np.random.default_rng(4))
        x = np.random.default_rng(5).standard_normal((12, 24))
        outs = {}
        for on in (False, True):
            policy = (
                ResiliencePolicy(
                    verify_writes=True,
                    spare_columns=2,
                    spare_pairs_per_bank=2,
                )
                if on
                else ResiliencePolicy()
            )
            config = _small_config(policy)
            executor = PrimeExecutor(config)
            plan = PrimeCompiler(config).compile(self.TOPOLOGY)
            outs[on] = executor.run_functional(
                net, plan, x, rng=np.random.default_rng(6)
            )
            if on:
                assert executor.last_degradation is not None
                assert executor.last_degradation.clean
            else:
                assert executor.last_degradation is None
        np.testing.assert_array_equal(outs[False], outs[True])
