"""Tests for command-stream execution and the bank scheduler."""

import numpy as np
import pytest

from repro.core.api import PrimeSession
from repro.core.commands import BufferLayout, BufferRegion, CommandStreamRunner
from repro.core.scheduler import BankScheduler, co_schedule
from repro.errors import ExecutionError, MappingError
from repro.eval.workloads import get_workload
from repro.nn.layers import Conv2D, Dense
from repro.nn.topology import parse_topology
from repro.precision.dynamic_fixed_point import DynamicFixedPoint


def _session(topology, net, seed):
    """A mapped, programmed and configured session; ``seed=None``
    programs ideal arrays, a seed arrays with variation."""
    session = PrimeSession(seed=seed)
    session.map_topology(topology)
    session.program_weight(net)
    session.config_datapath()
    return session


@pytest.fixture(scope="module")
def programmed_session(trained_tiny_mlp):
    return _session(*trained_tiny_mlp, seed=11)


class TestBufferLayout:
    def test_consecutive_regions(self):
        layout = BufferLayout.plan([100, 50, 25], capacity=1000)
        assert layout.regions[0] == BufferRegion(0, 100)
        assert layout.regions[1] == BufferRegion(100, 50)
        assert layout.regions[2] == BufferRegion(150, 25)

    def test_overflow_rejected(self):
        with pytest.raises(ExecutionError):
            BufferLayout.plan([600, 600], capacity=1000)


class TestCommandStreamRunner:
    def test_requires_programmed_session(self, trained_tiny_mlp):
        topology, _ = trained_tiny_mlp
        session = PrimeSession(seed=1)
        session.map_topology(topology)
        with pytest.raises(ExecutionError):
            CommandStreamRunner(session)

    def test_matches_fast_path(self, trained_tiny_mlp, tiny_digit_data):
        # run_functional freezes every layer's calibration on these 64
        # samples; the stream reads it and walks the same engines, so
        # its float32 logits are the fast path's, byte for byte, on
        # ideal arrays (seed None) and arrays with variation.
        x = tiny_digit_data[2][:64].astype(np.float32).astype(np.float64)
        for seed in (None, 11):
            session = _session(*trained_tiny_mlp, seed=seed)
            ideal = [p.on_lattice for p in session._programmed]
            assert all(ideal) == (seed is None) and any(ideal) == all(ideal)
            fast = session.run(x).astype(np.float32).astype(np.float64)
            runner = CommandStreamRunner(session)
            for sample, expected in zip(x, fast):
                logits = runner.run_sample(sample)
                assert logits.tobytes() == expected.tobytes()

    def test_emits_table_i_flow_commands(
        self, programmed_session, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        runner = CommandStreamRunner(programmed_session)
        before = len(runner.command_log)
        runner.run_sample(x_test[0])
        trace = runner.command_log[before:]
        ops = [t.split()[0] for t in trace]
        assert ops[0] == "fetch"
        assert ops[-1] == "commit"
        assert "load" in ops and "store" in ops
        # two weight layers → two load/store pairs (plus input/output)
        assert ops.count("load") == 2

    def test_moves_real_bytes_through_memory(
        self, programmed_session, tiny_digit_data
    ):
        _, _, x_test, _ = tiny_digit_data
        runner = CommandStreamRunner(programmed_session)
        logits = runner.run_sample(x_test[3], mem_offset=1 << 21)
        raw = programmed_session.bank.mem_read(
            (1 << 21) + (1 << 16), logits.size * 4
        )
        stored = np.frombuffer(raw.tobytes(), dtype=np.float32)
        assert np.allclose(stored, logits.astype(np.float32))


def _reference_sample(session, x, float_im2col):
    """One sample through ``session``'s programmed engines, as the
    command stream defines it: float im2col vectors with the bias
    input, each layer's frozen input format and output shift — for a
    layer not calibrated yet, the ones this sample freezes: the format
    of its vectors' peak and ``calibrate_output_shift`` over its codes
    — and the per-engine tile walk; float32 at the memory boundaries.
    Freezes nothing itself."""
    pin = session.executor.config.crossbar.effective_input_bits
    act = x.astype(np.float32).astype(np.float64)[None]
    programmed = iter(session._programmed)
    for layer in session.network.layers:
        if not isinstance(layer, (Dense, Conv2D)):
            act = layer.forward(act)
            continue
        entry = next(programmed)
        if isinstance(layer, Conv2D):
            vectors, spatial = float_im2col(layer, act)
        else:
            vectors, spatial = act.reshape(1, -1), (1,)
        vecs = np.concatenate([vectors, np.ones((len(vectors), 1))], axis=1)
        if entry.in_fmt is None:
            fmt = DynamicFixedPoint.for_data(vecs, bits=pin, signed=False)
            codes = fmt.quantize_int(np.clip(vecs, 0.0, None))
            shift = entry.calibrate_output_shift(codes)
        else:
            fmt, shift = entry.in_fmt, entry.output_shift
            codes = fmt.quantize_int(np.clip(vecs, 0.0, None))
        out = 0
        r0 = 0
        for row in entry.tiles:
            rows = row[0].rows_used
            out = out + np.concatenate(
                [
                    engine.mvm_batch(
                        codes[:, r0 : r0 + rows],
                        with_noise=False,
                        output_shift=shift,
                    )
                    for engine in row
                ],
                axis=1,
            )
            r0 += rows
        scale = 2.0**shift * fmt.resolution * entry.w_fmt.resolution
        act = (out * scale).reshape(*spatial, -1)
    return act.reshape(-1).astype(np.float32).astype(np.float64)


class TestCommandStreamReference:
    """run_sample bit for bit against :func:`_reference_sample`: the
    first sample on a fresh session freezes every layer's calibration,
    and later samples read it."""

    @staticmethod
    def _check(session, first, later, float_im2col):
        runner = CommandStreamRunner(session)
        expected = _reference_sample(session, first, float_im2col)
        assert all(p.in_fmt is None for p in session._programmed)
        np.testing.assert_array_equal(runner.run_sample(first), expected)
        frozen = [(p.in_fmt, p.output_shift) for p in session._programmed]
        assert all(fmt is not None for fmt, _ in frozen)
        np.testing.assert_array_equal(
            runner.run_sample(later),
            _reference_sample(session, later, float_im2col),
        )
        assert frozen == [
            (p.in_fmt, p.output_shift) for p in session._programmed
        ]

    def test_mlp_sample(self, trained_tiny_mlp, tiny_digit_data, float_im2col):
        # An input peak under 1/2: the bias input sets layer 0's format.
        x_test = tiny_digit_data[2]
        session = _session(*trained_tiny_mlp, seed=11)
        self._check(session, 0.4 * x_test[5], x_test[6], float_im2col)

    def test_cnn_sample(self, trained_tiny_cnn, float_im2col):
        topology, net, x_test, _ = trained_tiny_cnn
        session = _session(topology, net, seed=23)
        self._check(session, x_test[2], x_test[3], float_im2col)


class TestBankScheduler:
    def test_deploy_medium_gets_replicas(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(get_workload("MLP-S").topology())
        assert dep.replicas == 64
        assert len(scheduler.free_banks) == 0
        assert scheduler.utilization() == pytest.approx(1.0)

    def test_max_replicas_respected(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=4
        )
        assert dep.replicas == 4
        assert len(scheduler.free_banks) == 60

    def test_large_network_gets_pipeline_banks(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(get_workload("VGG-D").topology())
        assert dep.plan.banks_used > 1
        assert len(dep.replica_banks[0]) == dep.plan.banks_used

    def test_duplicate_name_rejected(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=1)
        with pytest.raises(MappingError):
            scheduler.deploy(get_workload("MLP-S").topology())

    def test_insufficient_banks_rejected(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-M").topology())  # takes all
        with pytest.raises(MappingError):
            scheduler.deploy(get_workload("VGG-D").topology())

    def test_release_returns_banks(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=8)
        scheduler.release("MLP-S")
        assert len(scheduler.free_banks) == 64
        assert scheduler.resident == []
        with pytest.raises(MappingError):
            scheduler.release("MLP-S")

    def test_place_samples_round_robin(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=4
        )
        placement = scheduler.place_samples("MLP-S", 10)
        assert isinstance(placement, np.ndarray)
        assert placement.shape == (10,)
        first = [g[0] for g in dep.replica_banks]
        np.testing.assert_array_equal(placement[:4], first)
        assert placement[4] == first[0]

    def test_place_samples_edge_counts(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=4)
        assert scheduler.place_samples("MLP-S", 0).shape == (0,)
        with pytest.raises(MappingError):
            scheduler.place_samples("MLP-S", -1)

    def test_throughput_scales_with_replicas(self):
        few = BankScheduler()
        few.deploy(get_workload("MLP-M").topology(), max_replicas=2)
        many = BankScheduler()
        many.deploy(get_workload("MLP-M").topology(), max_replicas=32)
        assert many.throughput("MLP-M") > 8 * few.throughput("MLP-M")

    def test_unknown_deployment(self):
        with pytest.raises(MappingError):
            BankScheduler().throughput("nope")


class TestSchedulerLifecycle:
    """Multi-tenant deploy/release/redeploy behaviour of the bank pool."""

    def test_release_and_redeploy_reuses_fragmented_banks(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=8)
        scheduler.deploy(get_workload("CNN-1").topology(), max_replicas=8)
        mlp_banks = set(scheduler.deployments["MLP-S"].banks)
        # Releasing the first tenant leaves a hole at the low bank IDs;
        # a new deployment must be able to claim it.
        scheduler.release("MLP-S")
        assert sorted(scheduler.free_banks) == scheduler.free_banks
        dep = scheduler.deploy(
            get_workload("MLP-M").topology(), max_replicas=8
        )
        assert set(dep.banks) & mlp_banks
        banks_cnn = set(scheduler.deployments["CNN-1"].banks)
        assert not set(dep.banks) & banks_cnn

    def test_interleaved_tenants_never_share_banks(self):
        scheduler = BankScheduler()
        names = ["MLP-S", "MLP-M", "CNN-1"]
        for name in names:
            scheduler.deploy(get_workload(name).topology(), max_replicas=4)
        claimed = [set(scheduler.deployments[n].banks) for n in names]
        for i in range(len(claimed)):
            for j in range(i + 1, len(claimed)):
                assert not claimed[i] & claimed[j]
        total = len(scheduler.free_banks) + sum(len(c) for c in claimed)
        assert total == 64
        for name in names:
            scheduler.release(name)
        assert scheduler.free_banks == list(range(64))
        assert scheduler.utilization() == 0.0

    def test_max_replicas_clamped_to_at_least_one(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=0
        )
        assert dep.replicas == 1
        assert dep.plan.bank_replicas == 1

    def test_large_scale_recompile_keeps_plan_valid(self):
        """VGG-D under the scheduler recompiles with replicate=False;
        the granted plan must still validate and its replica count must
        reflect the grant, not the global pool."""
        scheduler = BankScheduler()
        dep = scheduler.deploy(get_workload("VGG-D").topology())
        dep.plan.validate()
        assert dep.plan.bank_replicas == dep.replicas
        footprint = dep.plan.banks_used
        assert all(
            len(group) == footprint for group in dep.replica_banks
        )
        assert len(dep.banks) == len(set(dep.banks))


class TestGrowShrink:
    """Incremental grant resizing behind the reactive autoscaler."""

    def test_grow_grants_more_replica_groups(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=2
        )
        footprint = len(dep.replica_banks[0])
        free_before = len(scheduler.free_banks)
        scheduler.grow("MLP-S", 3)
        assert dep.replicas == 5
        assert dep.plan.bank_replicas == 5
        assert len(scheduler.free_banks) == free_before - 3 * footprint
        assert all(
            len(group) == footprint for group in dep.replica_banks
        )
        assert len(dep.banks) == len(set(dep.banks))

    def test_shrink_returns_last_groups(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=4
        )
        last_group = set(dep.replica_banks[-1])
        scheduler.shrink("MLP-S", 1)
        assert dep.replicas == 3
        assert dep.plan.bank_replicas == 3
        assert last_group <= set(scheduler.free_banks)
        assert sorted(scheduler.free_banks) == scheduler.free_banks

    def test_grow_shrink_roundtrip_restores_pool(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=2)
        free_before = sorted(scheduler.free_banks)
        scheduler.grow("MLP-S", 2)
        scheduler.shrink("MLP-S", 2)
        assert sorted(scheduler.free_banks) == free_before
        assert len(scheduler.free_banks) == len(set(scheduler.free_banks))

    def test_grow_beyond_pool_rejected_without_corruption(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=60)
        free_before = list(scheduler.free_banks)
        with pytest.raises(MappingError):
            scheduler.grow("MLP-S", 60)
        assert scheduler.free_banks == free_before
        assert scheduler.deployments["MLP-S"].replicas == 60

    def test_shrink_to_zero_rejected(self):
        scheduler = BankScheduler()
        dep = scheduler.deploy(
            get_workload("MLP-S").topology(), max_replicas=2
        )
        with pytest.raises(MappingError):
            scheduler.shrink("MLP-S", 2)
        assert dep.replicas == 2

    def test_unknown_and_invalid_counts_rejected(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=2)
        with pytest.raises(MappingError):
            scheduler.grow("nope")
        with pytest.raises(MappingError):
            scheduler.shrink("nope")
        with pytest.raises(MappingError):
            scheduler.grow("MLP-S", 0)
        with pytest.raises(MappingError):
            scheduler.shrink("MLP-S", 0)


class TestLifecycleEdges:
    """Regression: lifecycle misuse must fail loudly, never corrupt
    the free-bank list."""

    def test_release_unknown_leaves_pool_intact(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=4)
        free_before = list(scheduler.free_banks)
        resident_before = scheduler.resident
        with pytest.raises(MappingError, match="no deployment"):
            scheduler.release("ghost")
        assert scheduler.free_banks == free_before
        assert scheduler.resident == resident_before

    def test_double_release_raises_without_double_free(self):
        scheduler = BankScheduler()
        scheduler.deploy(get_workload("MLP-S").topology(), max_replicas=4)
        scheduler.release("MLP-S")
        free_after_first = list(scheduler.free_banks)
        with pytest.raises(MappingError):
            scheduler.release("MLP-S")
        # A buggy double-release would re-extend the free list.
        assert scheduler.free_banks == free_after_first
        assert len(scheduler.free_banks) == len(set(scheduler.free_banks))

    def test_pool_never_exceeds_total_after_churn(self):
        scheduler = BankScheduler()
        total = scheduler.config.organization.total_banks
        for round_ in range(3):
            scheduler.deploy(
                get_workload("MLP-S").topology(), max_replicas=4
            )
            scheduler.grow("MLP-S", 2)
            scheduler.shrink("MLP-S", 3)
            scheduler.release("MLP-S")
            assert len(scheduler.free_banks) == total
            assert scheduler.free_banks == list(range(total))


class TestCoSchedule:
    def test_two_networks_share_the_memory(self):
        scheduler = co_schedule(
            [
                get_workload("MLP-S").topology(),
                get_workload("CNN-1").topology(),
            ]
        )
        assert set(scheduler.resident) == {"MLP-S", "CNN-1"}
        banks_a = set(scheduler.deployments["MLP-S"].banks)
        banks_b = set(scheduler.deployments["CNN-1"].banks)
        assert not banks_a & banks_b  # disjoint grants

    def test_vgg_coexists_with_mlp(self):
        scheduler = co_schedule(
            [
                get_workload("VGG-D").topology(),
                get_workload("MLP-S").topology(),
            ]
        )
        vgg = scheduler.deployments["VGG-D"]
        assert vgg.replicas >= 1
        assert scheduler.deployments["MLP-S"].replicas >= 1

    def test_empty_schedule(self):
        scheduler = co_schedule([])
        assert scheduler.resident == []
        assert scheduler.utilization() == 0.0
