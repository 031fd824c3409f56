"""The float reference networks the evaluation studies start from.

Its own module: :mod:`repro.perf.cache` keys cached networks on this
source, so editing a study that only uses them keeps the cache warm.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.eval.workloads import get_workload
from repro.nn.datasets import synthetic_mnist
from repro.nn.network import Sequential


def train_reference_network(
    workload: str = "CNN-1",
    n_train: int = 5000,
    n_test: int = 800,
    epochs: int = 10,
    seed: int = 7,
) -> tuple[Sequential, np.ndarray, np.ndarray]:
    """Train the float reference network on the synthetic digit set."""
    wl = get_workload(workload)
    if not wl.functional:
        raise WorkloadError(f"{workload} is analytical-only")
    topology = wl.topology()
    flat = len(wl.input_shape) == 1
    x, y = synthetic_mnist(n_train + n_test, flat=flat, seed=seed)
    x_train, y_train = x[:n_train], y[:n_train]
    x_test, y_test = x[n_train:], y[n_train:]
    net = topology.build(rng=np.random.default_rng(seed))
    net.train_sgd(
        x_train,
        y_train,
        epochs=epochs,
        batch_size=32,
        learning_rate=0.05 if topology.has_conv else 0.3,
        rng=np.random.default_rng(seed + 1),
        val_x=x_test,
        val_labels=y_test,
    )
    return net, x_test, y_test
