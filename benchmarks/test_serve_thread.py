"""Thread-dispatch serving gates (MLP-L, small micro-batches).

Not a paper figure — this tracks the shared-state replica design:
``ThreadDispatcher`` runs N replica threads against **one** programmed
copy, so deploying costs one programming pass and scaling up costs
only scratch-buffer leases.  The gates:

* **Cold-start goodput** — requests/s from deploy to drain at
  micro-batch <= 4 (deploy + serve 256 requests on 2 replicas), with
  both replicas holding one programmed copy between them.
* **Scale-up runs no programming pass** — growing 1 -> 2 replicas
  leaves ``serve.programs`` and ``resident_bytes`` unchanged: the new
  replica serves the copy that is already programmed.  Counted, not
  timed, so the gate holds on any host.
* **Bit-identity oracle** — thread-mode serving equals
  ``ServingRuntime.reference`` in both noise-off (per-sample, any
  batching) and seeded noise-on (per micro-batch index) regimes.

Wall times land in ``BENCH_summary.json`` for ``compare_bench.py``.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.eval.workloads import get_workload
from repro.serve import ServeConfig, ServingRuntime, spec_resident_bytes

pytestmark = pytest.mark.serve

#: Requests drained per cold-start goodput run.
REQUESTS = 256
#: Replica count for the goodput comparison.
REPLICAS = 2
#: The small-batch regime: micro-batches of 1-4 samples.
MAX_BATCH = 4


@pytest.fixture(scope="module")
def workload():
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(7))
    features = int(np.prod(topology.input_shape))
    samples = np.random.default_rng(11).random((REQUESTS, features))
    return topology, net, samples


def _cold_to_drain(workload) -> SimpleNamespace:
    """Deploy ``REPLICAS`` thread replicas and drain every request at
    micro-batch <= ``MAX_BATCH``; wall includes deploy, so the one
    programming pass per deployment is part of the number."""
    topology, net, samples = workload
    start = time.perf_counter()
    runtime = ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="thread", max_batch=MAX_BATCH),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    )
    try:
        out = runtime.serve(samples)
        wall_s = time.perf_counter() - start
        assert out.shape[0] == REQUESTS
        resident = runtime.dispatcher.resident_bytes()
        copy_bytes = spec_resident_bytes(runtime.spec)
    finally:
        runtime.close()
    return SimpleNamespace(
        mode="thread",
        requests=REQUESTS,
        replicas=REPLICAS,
        max_batch=MAX_BATCH,
        wall_s=wall_s,
        goodput_rps=REQUESTS / wall_s,
        resident_bytes=resident,
        resident_copies=resident / copy_bytes,
    )


def test_serve_thread_cold_goodput_mlp_l(once, workload):
    result = once(_cold_to_drain, workload)
    assert result.goodput_rps > 0
    # N thread replicas share one programmed copy.
    assert result.resident_copies == 1.0


def test_thread_scaleup_gate(workload):
    """Growing 1 -> 2 replicas runs no programming pass: the new
    replica thread serves the copy that is already programmed, so
    ``serve.programs`` and the resident programmed state stay as they
    were, and the grown deployment still answers exactly."""
    topology, net, samples = workload
    session = telemetry.enable(fresh=True)
    try:
        with ServingRuntime(
            net,
            topology,
            serve_config=ServeConfig(mode="thread", max_batch=MAX_BATCH),
            calibration=samples[:64],
            max_replicas=1,
        ) as runtime:
            runtime.serve(samples[:32])  # warm: calibration + plan
            programs = session.metrics.counter_total("serve.programs")
            resident = runtime.dispatcher.resident_bytes()
            assert programs == 1
            cost_s = runtime.scale_to(2)
            assert runtime.replicas == 2
            assert (
                session.metrics.counter_total("serve.programs")
                == programs
            )
            assert runtime.dispatcher.resident_bytes() == resident
            assert resident == spec_resident_bytes(runtime.spec)
            served = runtime.serve(samples[:32])
            np.testing.assert_array_equal(
                served, runtime.reference(samples[:32])
            )
    finally:
        telemetry.disable()
    print()
    print(f"scale-up 1->2: {cost_s * 1e3:.3f} ms, no programming pass")


def test_thread_bit_identity_oracle(workload):
    """Thread-mode serving is bit-identical to the fresh-copy oracle in
    both noise regimes — routing across replica threads and the shared
    program state never leak into results."""
    topology, net, samples = workload
    # Noise off: per-sample equality for any batching.
    with ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(mode="thread", max_batch=MAX_BATCH),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    ) as runtime:
        served = runtime.serve(samples[:64])
        np.testing.assert_array_equal(
            served, runtime.reference(samples[:64])
        )
    # Seeded noise on: per micro-batch-index equality.
    with ServingRuntime(
        net,
        topology,
        serve_config=ServeConfig(
            mode="thread",
            max_batch=MAX_BATCH,
            with_noise=True,
            seed=7,
        ),
        calibration=samples[:64],
        max_replicas=REPLICAS,
    ) as runtime:
        subset = samples[:32]
        served = runtime.serve(subset)
        for index in range(len(subset) // MAX_BATCH):
            rows = slice(index * MAX_BATCH, (index + 1) * MAX_BATCH)
            np.testing.assert_array_equal(
                served[rows],
                runtime.reference(subset[rows], batch_index=index),
            )
