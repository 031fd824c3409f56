"""Deploy cost as retained bytes, not wall time.

An ideal MLP-L deployment holds one int16 copy of each engine's
programmed weights and the compiled plan's scaled count stacks; its
cells hold no level matrix and no conductances (both are derived on
first read, which fused serving never makes), and the calibration
forward's scratch buffers are freed once deploy is done.  A second
(unscaled) stack, int64 weight copies, stored cell levels, float
conductances or retained scratch would each add tens of MiB, so a
ceiling on what ``program_state`` leaves allocated guards the deploy's
cost deterministically, on any host.  The same ceiling holds after the
copy recovers from drift.
"""

import gc
import tracemalloc

import numpy as np

from repro.core.compiler import PrimeCompiler
from repro.eval.workloads import get_workload
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.serve.dispatcher import (
    WorkerSpec,
    capture_reference,
    program_state,
    reprogram_state,
)
from repro.serve.health import apply_drift

#: Most bytes an ideal MLP-L deployment may hold once programmed and
#: calibrated (about 30.6 MiB with numpy 2.4: the plan's count stacks
#: 24.3 MiB, int16 programmed weights 6.1 MiB, the engines' periphery
#: and cell objects about 0.2 MiB; stored cell levels would add
#: 28.5 MiB).
RETAINED_LIMIT = int(31.5 * 2**20)


def _assert_retained_under_the_limit(recovered: bool) -> None:
    """Deploy an ideal MLP-L copy under ``tracemalloc`` and check what
    it retains; ``recovered`` also drifts the copy, reprograms it and
    runs one forward (the drift probe's reference capture), as serving
    recovers from drift."""
    topology = get_workload("MLP-L").topology()
    net = topology.build(rng=np.random.default_rng(0))
    plan = PrimeCompiler(DEFAULT_PRIME_CONFIG).compile(topology)
    calibration = np.random.default_rng(1).random(
        (64, *topology.input_shape)
    )
    spec = WorkerSpec(
        network=net,
        plan=plan,
        config=DEFAULT_PRIME_CONFIG,
        seed=0,
        calibration=calibration,
        probe_reference=recovered,
    )
    tracemalloc.start()
    try:
        state = program_state(spec)
        if recovered:
            executor, programmed = state
            apply_drift(programmed, 0.2, seed=3)
            reprogram_state(spec, programmed)
            reference = capture_reference(spec, executor, programmed)
            assert reference.shape == (64, 10)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    _, programmed = state
    assert all(p.in_fmt is not None for p in programmed)
    cells = [
        array
        for layer in programmed
        for row in layer.tiles
        for engine in row
        for array in (engine.pair.positive, engine.pair.negative)
    ]
    assert all(c._levels is None and c._conductance is None for c in cells)
    breakdown = "\n".join(
        str(stat) for stat in snapshot.statistics("lineno")[:15]
    )
    assert retained <= RETAINED_LIMIT, (
        f"an ideal MLP-L deploy holds {retained / 2**20:.1f} MiB "
        f"(limit {RETAINED_LIMIT / 2**20:.1f} MiB); largest holders:\n"
        f"{breakdown}"
    )


def test_ideal_mlp_l_deploy_retained_bytes_stay_under_the_limit():
    _assert_retained_under_the_limit(recovered=False)


def test_ideal_mlp_l_copy_recovered_from_drift_stays_under_the_limit():
    """Reprogramming returns every exact array to its derived state, so
    the recovered copy holds what it held after deploy (an eager
    rewrite of every level matrix kept 59.35 MiB)."""
    _assert_retained_under_the_limit(recovered=True)
