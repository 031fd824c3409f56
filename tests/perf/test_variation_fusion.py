"""Differential tests for crossbars programmed with variation.

Programming variation moves every cell's conductance off the level
lattice, so counts are continuous and the compiled plan reads them from
a differential conductance stack instead of the integer weights.  The
contract under test: a single layer's inline step
(:func:`~repro.perf.plan.run_layer`), the compiled plan and chunked
streaming all equal the per-engine tile walk (``PRIME_FUSED=0``) bit
for bit, with read noise too under equal draws; every path charges the
same hardware counters; and a stack cached before drift or
reprogramming is never served after it.
"""

import contextlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.nn.layers import Conv2D
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.perf import plan as plan_mod
from repro.precision.dynamic_fixed_point import DynamicFixedPoint
from repro.serve.dispatcher import WorkerSpec, reprogram_state
from repro.serve.health import apply_drift

PARAMS = CrossbarParams(rows=32, cols=32, sense_amps=8)


@pytest.fixture(scope="module")
def executor():
    return PrimeExecutor(DEFAULT_PRIME_CONFIG)


@pytest.fixture(scope="module")
def compiler():
    return PrimeCompiler(DEFAULT_PRIME_CONFIG)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PRIME_FUSED", raising=False)
    telemetry.disable()
    yield
    telemetry.disable()


@contextlib.contextmanager
def _walk():
    """Force the per-engine tile walk (``PRIME_FUSED=0``)."""
    os.environ["PRIME_FUSED"] = "0"
    try:
        yield
    finally:
        os.environ.pop("PRIME_FUSED", None)


def _engines(grids):
    """Every engine of an iterable of tile grids."""
    return [e for tiles in grids for row in tiles for e in row]


def _counted(run, engines):
    """``run()`` plus the hardware firings it charged: the
    ``mvm.invocations`` counter and each engine's invocation and
    sense-amp conversion increments."""
    before = [(e.mvm_invocations, e.sa_conversions) for e in engines]
    session = telemetry.enable(fresh=True)
    try:
        out = run()
        firings = session.metrics.counter_total("mvm.invocations")
    finally:
        telemetry.disable()
    deltas = [
        (e.mvm_invocations - inv, e.sa_conversions - conv)
        for e, (inv, conv) in zip(engines, before)
    ]
    return out, (firings, deltas)


# -- layer level -------------------------------------------------------


@st.composite
def split_merge_grids(draw):
    """The executor's tiling pattern: full tiles except the last row
    and column block."""
    row_blocks = draw(st.integers(1, 3))
    col_blocks = draw(st.integers(1, 3))
    last_rows = draw(st.integers(1, PARAMS.rows))
    last_cols = draw(st.integers(1, PARAMS.logical_cols))
    rows = [PARAMS.rows] * (row_blocks - 1) + [last_rows]
    cols = [PARAMS.logical_cols] * (col_blocks - 1) + [last_cols]
    return rows, cols


def _varied_grid(rows, cols, weight_seed, variation_seed):
    weights = np.random.default_rng(weight_seed)
    variation = np.random.default_rng(variation_seed)
    w_max = (1 << PARAMS.effective_weight_bits) - 1
    tiles = []
    for r in rows:
        row = []
        for c in cols:
            engine = CrossbarMVMEngine(PARAMS, rng=variation)
            engine.program(weights.integers(-w_max, w_max + 1, (r, c)))
            row.append(engine)
        tiles.append(row)
    return tiles


@settings(max_examples=300, deadline=None)
@given(
    grid=split_merge_grids(),
    batch=st.integers(1, 24),
    shift=st.integers(0, 14),
    variation_seed=st.integers(0, 2**32 - 1),
    weight_seed=st.integers(0, 2**32 - 1),
)
def test_inline_layer_equals_walk(
    layer_runs, grid, batch, shift, variation_seed, weight_seed
):
    rows, cols = grid
    tiles = _varied_grid(rows, cols, weight_seed, variation_seed)
    programmed = ProgrammedLayer(
        tiles, DynamicFixedPoint(PARAMS.effective_weight_bits + 1, 0)
    )
    # Unit resolution: the inputs are the codes; run_layer drives the
    # bias row at 1.
    programmed.in_fmt = DynamicFixedPoint(
        PARAMS.effective_input_bits, 0, signed=False
    )
    programmed.output_shift = shift
    assert not programmed.on_lattice
    assert programmed.samples_read_noise(True)
    x = np.random.default_rng(weight_seed + 1).integers(
        0,
        1 << PARAMS.effective_input_bits,
        (batch, programmed.total_rows - 1),
    ).astype(float)
    for with_noise in (False, True):
        session = telemetry.enable(fresh=True)
        try:
            (inline, fired), (walked, walk_fired) = layer_runs(
                programmed, x, with_noise
            )
            firings = session.metrics.counter_total("mvm.invocations")
        finally:
            telemetry.disable()
        np.testing.assert_array_equal(inline, walked)
        assert fired == walk_fired
        assert firings == 2 * batch * len(rows) * len(cols)


# -- network level -----------------------------------------------------


def _program(executor, net, plan, seed):
    """Program with variation drawn from ``seed``; ``seed=None``
    programs ideal arrays."""
    rng = None if seed is None else np.random.default_rng(seed)
    programmed = executor.program_network(net, plan, rng=rng)
    assert all(p.on_lattice == (seed is None) for p in programmed)
    return programmed


def _compiled_and_walked(executor, net, plan, x, seed):
    """Run a fresh programmed copy through the compiled plan twice (the
    first chunk compiles it and freezes calibration), then walk the
    same state: all three agree bit for bit and charge alike."""
    programmed = _program(executor, net, plan, seed)
    engines = _engines(p.tiles for p in programmed)

    def run():
        return executor.run_functional(net, plan, x, programmed=programmed)

    first, first_counts = _counted(run, engines)
    compiled, compiled_counts = _counted(run, engines)
    # Every weight layer ran the plan's inline path, none delegated.
    steps = programmed[0].compiled_plan.steps
    assert all(getattr(step, "stacked", True) for step in steps)
    with _walk():
        walked, walked_counts = _counted(run, engines)
    np.testing.assert_array_equal(first, compiled)
    np.testing.assert_array_equal(compiled, walked)
    assert first_counts == compiled_counts == walked_counts
    assert compiled_counts[0] > 0


def _chunked_equals_whole(executor, net, plan, x, seed):
    whole = executor.run_functional(
        net, plan, x, programmed=_program(executor, net, plan, seed)
    )
    chunked = executor.run_functional(
        net,
        plan,
        x,
        programmed=_program(executor, net, plan, seed),
        chunk_bytes=1,
    )
    np.testing.assert_array_equal(whole, chunked)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 40))
def test_mlp_compiled_equals_walk(
    executor, compiler, trained_tiny_mlp, tiny_digit_data, seed, batch
):
    topology, net = trained_tiny_mlp
    x = tiny_digit_data[2][:batch]
    plan = compiler.compile(topology)
    _compiled_and_walked(executor, net, plan, x, seed)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6))
def test_cnn_compiled_equals_walk(
    executor, compiler, trained_tiny_cnn, seed, batch
):
    topology, net, x_test, _ = trained_tiny_cnn
    plan = compiler.compile(topology)
    _compiled_and_walked(executor, net, plan, x_test[:batch], seed)


#: Conv geometries no MlBench CNN reaches: same padding, and a second
#: conv over 32 input channels whose 3x3x32 + 1 = 289 rows span a full
#: 256-row block plus a 33-row tail.
CONV_GEOMETRY = parse_topology(
    "conv-geometry",
    "conv3x32-conv3x8-pool-10",
    input_shape=(6, 6, 1),
    conv_padding="same",
)


@pytest.fixture(scope="module")
def conv_geometry(compiler):
    net = CONV_GEOMETRY.build(rng=np.random.default_rng(21))
    plan = compiler.compile(CONV_GEOMETRY)
    assert [(m.rows, m.row_blocks) for m in plan.weight_layers[:2]] == [
        (10, 1),
        (289, 2),
    ]
    x = np.random.default_rng(22).random((130, 6, 6, 1))
    return net, plan, x


@pytest.mark.parametrize("seed", [None, 31], ids=["ideal", "variation"])
@pytest.mark.parametrize("batch", [1, 63, 64, 65, 130])
def test_conv_geometries_compiled_equal_walk(
    executor, conv_geometry, batch, seed
):
    """Batches on both sides of the 64-sample calibration prefix."""
    net, plan, x = conv_geometry
    _compiled_and_walked(executor, net, plan, x[:batch], seed)


@pytest.mark.parametrize("batch", [1, 65])
def test_conv_geometries_delegated_with_noise(
    executor, conv_geometry, monkeypatch, inline_only, batch, float_im2col
):
    """With read noise on, every weight step of the compiled plan runs
    inline over its call's own draw and equals the walk of a same-seed
    copy, each engine's counters included; only the walk delegates,
    with codes from the slice-copy gather: each conv step's codes equal
    a float-im2col quantisation of its input at the frozen format.
    Same-seed copies reproduce, and the noise moves the output."""
    net, plan, x = conv_geometry

    def noisy(walk=False):
        programmed = _program(executor, net, plan, 31)
        assert all(p.samples_read_noise(True) for p in programmed)
        engines = _engines(p.tiles for p in programmed)

        def run():
            return executor.run_functional(
                net, plan, x[:batch], programmed=programmed, with_noise=True
            )

        if walk:
            with _walk():
                return _counted(run, engines)
        with inline_only():
            return _counted(run, engines)

    delegated = []
    delegate = plan_mod._WeightStep._delegate
    mvm_batch = ProgrammedLayer.mvm_batch

    def spy_delegate(step, act, *args):
        delegated.append([step, act.copy(), None])
        return delegate(step, act, *args)

    def spy_mvm(layer, codes, *args, **kwargs):
        delegated[-1][2] = np.array(codes)
        return mvm_batch(layer, codes, *args, **kwargs)

    compiled, fired = noisy()
    np.testing.assert_array_equal(compiled, noisy()[0])
    monkeypatch.setattr(plan_mod._WeightStep, "_delegate", spy_delegate)
    monkeypatch.setattr(ProgrammedLayer, "mvm_batch", spy_mvm)
    walked, walk_fired = noisy(walk=True)
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired and fired[0] > 0
    convs = [d for d in delegated if isinstance(d[0].layer, Conv2D)]
    assert len(convs) == 2
    for step, act, codes in convs:
        vectors, _ = float_im2col(step.layer, act)
        vecs = np.concatenate([vectors, np.ones((len(vectors), 1))], axis=1)
        expected = step.in_fmt.quantize_int(np.clip(vecs, 0.0, None))
        np.testing.assert_array_equal(codes, expected)
    quiet = executor.run_functional(
        net, plan, x[:batch], programmed=_program(executor, net, plan, 31)
    )
    assert not np.array_equal(compiled, quiet)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(65, 90))
def test_chunked_equals_unchunked(
    executor, compiler, trained_tiny_mlp, trained_tiny_cnn,
    tiny_digit_data, seed, batch,
):
    """Past the 64-sample calibration prefix, one-sample chunks run
    the compiled plan; the result still equals one call."""
    topology, net = trained_tiny_mlp
    x = tiny_digit_data[2][:batch]
    _chunked_equals_whole(
        executor, net, compiler.compile(topology), x, seed
    )
    topology, net, x_test, _ = trained_tiny_cnn
    _chunked_equals_whole(
        executor, net, compiler.compile(topology), x_test[:batch], seed
    )


# -- stale stacks --------------------------------------------------------


def test_drift_and_reprogram_never_serve_a_stale_stack(
    executor, compiler, trained_tiny_mlp, tiny_digit_data
):
    """The compiled plan caches the differential stack; drift and
    reprogramming rewrite the conductances under it, and the next run
    must read the new state (equal to the walk of that state)."""
    topology, net = trained_tiny_mlp
    x = tiny_digit_data[2][:24]
    plan = compiler.compile(topology)
    spec = WorkerSpec(
        network=net, plan=plan, config=DEFAULT_PRIME_CONFIG, seed=5
    )
    programmed = _program(executor, net, plan, 5)

    def run():
        return executor.run_functional(net, plan, x, programmed=programmed)

    def walk():
        with _walk():
            return run()

    run()  # calibrates
    before = run()
    compiled = programmed[0].compiled_plan
    assert compiled is not None
    apply_drift(programmed, magnitude=0.3, seed=9)
    drifted = run()
    recompiled = programmed[0].compiled_plan
    assert recompiled is not None and recompiled is not compiled
    assert not np.array_equal(drifted, before)
    np.testing.assert_array_equal(drifted, walk())
    reprogram_state(spec, programmed)
    healed = run()
    healed_plan = programmed[0].compiled_plan
    assert healed_plan is not recompiled
    # The healed run read fresh stacks, inline.
    assert all(getattr(step, "stacked", True) for step in healed_plan.steps)
    np.testing.assert_array_equal(healed, walk())
