"""The eval studies are pure functions of their arguments.

Two runs at one seed must be equal under plain ``==``: no study may
carry state from one call into the next, or draw from a stream that
depends on anything but its own arguments and per-task seed.
"""

import pytest

from repro.eval.dpe_study import dpe_study
from repro.eval.experiments import run_all_systems
from repro.eval.precision_study import (
    precision_study,
    train_reference_network,
)
from repro.perf.parallel import task_seed


@pytest.fixture(scope="module")
def tiny_reference():
    return train_reference_network(
        "MLP-S", n_train=400, n_test=80, epochs=2, seed=3
    )


class TestStudyDeterminism:
    def test_precision_grid_repeats_exactly(self, tiny_reference):
        kwargs = dict(
            input_bit_range=(2, 4),
            weight_bit_range=(2, 4),
            reference=tiny_reference,
        )
        first = precision_study(**kwargs)
        second = precision_study(**kwargs)
        assert second.grid == first.grid
        assert second.float_accuracy == first.float_accuracy

    def test_enob_repeats_exactly(self):
        kwargs = dict(weight_bit_range=(2, 3), rows=64, trials=4, seed=5)
        assert dpe_study(**kwargs).enob == dpe_study(**kwargs).enob

    def test_run_all_systems_repeats_exactly(self):
        kwargs = dict(batch=128, workloads=("CNN-1", "MLP-S"))
        first = run_all_systems(**kwargs)
        second = run_all_systems(**kwargs)
        assert second.reports == first.reports


def test_task_seed_deterministic_and_distinct():
    assert task_seed(7, "enob", 3) == task_seed(7, "enob", 3)
    seeds = {
        task_seed(7, "enob", i) for i in range(32)
    } | {task_seed(8, "enob", i) for i in range(32)}
    assert len(seeds) == 64
