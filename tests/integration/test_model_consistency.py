"""Cross-validation between the analytical and functional models.

The analytical executor predicts analog firings per sample; the
functional engines count their actual invocations.  The two must agree
up to the documented difference: the analytic model credits intra-pair
replication (packing several small input vectors into one analog
firing), which the functional path evaluates one vector at a time.
"""

import numpy as np
import pytest

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.eval.workloads import get_workload


class TestInvocationAccounting:
    def test_mlp_functional_matches_analytic_exactly(
        self, trained_tiny_mlp, tiny_digit_data
    ):
        # FC layers have reuse=1 and intra_replication=1: the counts
        # must match exactly (one firing per tile per sample).
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = PrimeCompiler().compile(topology)
        executor = PrimeExecutor()
        programmed = executor.program_network(net, plan)
        batch = 16
        executor.run_functional(
            net, plan, x_test[:batch], programmed=programmed
        )
        functional = sum(
            engine.mvm_invocations
            for layer in programmed
            for row in layer.tiles
            for engine in row
        )
        analytic = batch * sum(
            m.analog_ops_per_sample for m in plan.weight_layers
        )
        assert functional == analytic

    def test_cnn_functional_bounded_by_analytic_times_packing(
        self, trained_tiny_cnn
    ):
        topology, net, x_test, _ = trained_tiny_cnn
        plan = PrimeCompiler().compile(topology)
        executor = PrimeExecutor()
        programmed = executor.program_network(net, plan)
        batch = 4
        executor.run_functional(
            net, plan, x_test[:batch], programmed=programmed
        )
        functional = sum(
            engine.mvm_invocations
            for layer in programmed
            for row in layer.tiles
            for engine in row
        )
        # per-layer: functional fires reuse × pairs; analytic divides
        # the reuse by the intra-pair packing factor
        expected_functional = batch * sum(
            max(m.traffic.reuse, 1) * m.pairs
            for m in plan.weight_layers
        )
        analytic = batch * sum(
            m.analog_ops_per_sample for m in plan.weight_layers
        )
        assert functional == expected_functional
        assert analytic <= functional
        conv = next(m for m in plan.weight_layers if m.traffic.is_conv)
        # the gap is exactly the packing factor on conv layers
        assert analytic * conv.intra_replication >= functional

    def test_energy_model_tracks_invocations(self, trained_tiny_mlp):
        # Doubling the batch doubles both the analytic energy and the
        # functional firing count.
        topology, net = trained_tiny_mlp
        plan = PrimeCompiler().compile(topology)
        executor = PrimeExecutor()
        e1 = executor.estimate(plan, batch=32).compute_energy_j
        e2 = executor.estimate(plan, batch=64).compute_energy_j
        assert e2 == pytest.approx(2 * e1)

    def test_sense_amp_conversions_counted(self, trained_tiny_mlp, tiny_digit_data):
        topology, net = trained_tiny_mlp
        _, _, x_test, _ = tiny_digit_data
        plan = PrimeCompiler().compile(topology)
        executor = PrimeExecutor()
        programmed = executor.program_network(net, plan)
        executor.run_functional(
            net, plan, x_test[:4], programmed=programmed
        )
        total_conversions = sum(
            engine.sa_conversions
            for layer in programmed
            for row in layer.tiles
            for engine in row
        )
        assert total_conversions > 0
