"""Differential test: the compiled plan against the per-engine walk.

``run_functional`` has one fast path, the compiled plan, and one
reference, ``PRIME_FUSED=0``, under which every weight step walks the
engines.  Over random small networks (dense-only, and conv-pool-dense),
layer widths on both sides of the 256-row block, SA output widths,
array conditions and batch sizes around the calibration prefix, the two
must agree bit for bit and charge every engine the same firings and
conversions, with read noise too from same-seed copies, whose draws the
plan makes in the walk's order; chunked streaming must not change the
output; and noisy runs must reproduce under a fixed seed.  Fixed cases
force each of the
plan's SA regimes (see ``_WeightStep._lower``) on dense and conv steps,
since random draws reach the rarer two only by chance, an SA wide
enough to need a float64 stack, and one- and two-vector steps on each
side of the packed stack's column threshold; noisy and delegating
steps must cache no stack.  The in-situ trainer and the SNN backend
run their layers through the same weight step
(:func:`~repro.perf.plan.run_layer`) and are held to the same walk.
"""

import dataclasses
import os
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.sense import part_window
from repro.insitu import InSituTrainer
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.nn.snn import SpikingNetwork
from repro.nn.topology import parse_topology
from repro.params.crossbar import DEFAULT_CROSSBAR
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.params.reram import PT_TIO2_DEVICE
from repro.perf.plan import PACKED_MAX_VECS, PACKED_MIN_COLS, _WeightStep
from repro.resilience import ResiliencePolicy
from repro.serve.health import apply_drift

#: A device without programming variation or read noise: stuck-at
#: faults then leave every cell on the level lattice, where the plan
#: stacks the stuck cells' levels as exact integers.
QUIET_DEVICE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
#: Verified writes that spare and then mask columns at a 2% stuck-at
#: rate: a column's residual error sums over its rows, so the tight
#: limits reach the small layers too.
SPARING = ResiliencePolicy(
    verify_writes=True,
    spare_columns=2,
    column_error_limit=64.0,
    mask_error_limit=400.0,
)


class Arrays(NamedTuple):
    """One array condition: the device, whether programming draws from
    an rng (variation, fault maps), the stuck-at rate, the resilience
    policy, and the drift applied after programming."""

    device: object
    varied: bool
    rate: float = 0.0
    resilience: ResiliencePolicy | None = None
    drift: float = 0.0


ARRAYS = {
    "ideal": Arrays(PT_TIO2_DEVICE, False),
    "variation": Arrays(PT_TIO2_DEVICE, True),
    "stuck-at": Arrays(QUIET_DEVICE, True, 0.02),
    "stuck-at+resilience": Arrays(QUIET_DEVICE, True, 0.02, SPARING),
    "stuck-at+variation": Arrays(PT_TIO2_DEVICE, True, 0.02),
    "stuck-at+variation+resilience": Arrays(
        PT_TIO2_DEVICE, True, 0.02, SPARING
    ),
    "drift": Arrays(PT_TIO2_DEVICE, False, drift=0.3),
}
#: Around the 64-sample calibration prefix, and past two of it.
BATCHES = [1, 2, 3, 63, 64, 65, 130]


@st.composite
def networks(draw):
    """A parse_topology ``(text, input_shape, conv_padding)``."""
    if draw(st.booleans()):
        width = st.one_of(st.integers(2, 48), st.integers(250, 300))
        widths = draw(st.lists(width, min_size=2, max_size=4))
        return "-".join(map(str, widths)), None, "valid"
    k = draw(st.integers(1, 5))
    padding = "valid"
    if k <= 3:
        padding = draw(st.sampled_from(["valid", "same"]))
    pad = (k - 1) // 2 if padding == "same" else 0
    out = 2 * draw(st.integers(1, 5))  # even, for the 2x2 pool
    size = out + k - 1 - 2 * pad
    channels = draw(st.integers(1, 3))
    maps = draw(st.integers(1, 16))
    dense = draw(st.lists(st.integers(2, 40), min_size=1, max_size=2))
    text = "-".join([f"conv{k}x{maps}", "pool", *map(str, dense)])
    return text, (size, size, channels), padding


def _firings(programmed):
    return [
        (e.mvm_invocations, e.sa_conversions)
        for p in programmed
        for row in p.tiles
        for e in row
    ]


def _vectors(plan):
    """Input vectors per sample of each engine, in programmed order:
    one per dense layer, one per output pixel of a conv layer."""
    return [
        max(m.traffic.reuse, 1)
        for m in plan.weight_layers
        for _ in range(m.row_blocks * m.col_blocks)
    ]


def _run(executor, net, plan, x, programmed, walk=False, **kwargs):
    """One run_functional call and each engine's firing/conversion
    increments; ``walk`` sets ``PRIME_FUSED=0`` for the call."""
    before = _firings(programmed)
    with mock.patch.dict(os.environ, {"PRIME_FUSED": "0" if walk else "1"}):
        out = executor.run_functional(
            net, plan, x, programmed=programmed, **kwargs
        )
    after = _firings(programmed)
    deltas = [
        (a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)
    ]
    return out, deltas


def _setup(text, input_shape, padding, po, arrays, seed):
    """``(topology, net, plan, executor)`` for one case."""
    xbar = dataclasses.replace(
        DEFAULT_CROSSBAR,
        output_bits=po,
        device=arrays.device,
        fault_rate_hrs=arrays.rate / 2,
        fault_rate_lrs=arrays.rate / 2,
    )
    config = dataclasses.replace(
        DEFAULT_PRIME_CONFIG,
        crossbar=xbar,
        resilience=arrays.resilience or ResiliencePolicy(),
    )
    topology = parse_topology(
        "differential", text, input_shape=input_shape, conv_padding=padding
    )
    net = topology.build(rng=np.random.default_rng(seed))
    plan = PrimeCompiler(config).compile(topology)
    return topology, net, plan, PrimeExecutor(config)


def _program(executor, net, plan, arrays, seed):
    """A fresh programmed copy under ``arrays``, drawn from ``seed``."""
    rng = np.random.default_rng(seed) if arrays.varied else None
    programmed = executor.program_network(net, plan, rng=rng)
    if arrays.drift:
        apply_drift(programmed, arrays.drift, seed)
    return programmed


def _weight_steps(programmed):
    return [
        s
        for s in programmed[0].compiled_plan.steps
        if isinstance(s, _WeightStep)
    ]


@settings(max_examples=105, deadline=None)
@given(
    network=networks(),
    po=st.integers(2, 12),
    arrays=st.sampled_from(sorted(ARRAYS)),
    batch=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_equals_walk(inline_only, network, po, arrays, batch, seed):
    arrays = ARRAYS[arrays]
    topology, net, plan, executor = _setup(*network, po, arrays, seed)
    x = np.random.default_rng(seed + 1).random(
        (batch, *topology.input_shape)
    )

    def fresh():
        return _program(executor, net, plan, arrays, seed + 2)

    # Each run starts from a fresh same-seed copy, so each freezes its
    # own calibration from this batch's prefix on its own path.
    programmed = fresh()
    compiled, fired = _run(executor, net, plan, x, programmed)
    # Every weight step ran inline.
    assert all(s.stacked for s in _weight_steps(programmed))
    walked, walk_fired = _run(executor, net, plan, x, fresh(), walk=True)
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired
    assert [inv for inv, _ in fired] == [batch * v for v in _vectors(plan)]
    chunked, _ = _run(executor, net, plan, x, fresh(), chunk_bytes=1)
    np.testing.assert_array_equal(compiled, chunked)
    if programmed[0].samples_read_noise(True):
        # Arrays that draw read noise: same-seed copies draw alike on
        # the plan, every step inline, and on the walk.
        with inline_only():
            noisy, noisy_fired = _run(
                executor, net, plan, x, fresh(), with_noise=True
            )
        walked, walk_fired = _run(
            executor, net, plan, x, fresh(), walk=True, with_noise=True
        )
        np.testing.assert_array_equal(noisy, walked)
        assert noisy_fired == walk_fired == fired
        again, _ = _run(executor, net, plan, x, fresh(), with_noise=True)
        np.testing.assert_array_equal(noisy, again)


#: One ~256-row weight layer of each kind, first in its network: a
#: dense layer over two row blocks (full + tail), wide enough for the
#: packed micro-batch stack, and a conv layer.
FOLD_NETS = {
    "dense": (f"300-{PACKED_MIN_COLS}", None, "valid"),
    "conv": ("conv3x3-pool-10", (6, 6, 28), "same"),
}
#: Each SA regime of a lowered step, and the SA width that puts the
#: first weight layer in it.
FOLD_REGIMES = [
    # pin/2 + pw/2 <= shift < part_full_bits: residual and post all ones.
    ("all-ones", 6),
    # A shift below the HH exponent: residual < 1 and post > 1.
    ("shift-below-hh", 12),
    # The LL part's window lies below the register: pre = 0.
    ("below-register", 2),
]


def _regime(step):
    """The SA regime a lowered weight step took."""
    pre, _ = part_window(step.spec, step.shift)
    if not pre.all():
        return "below-register"
    if step.res_c is None and step.post_c is None:
        return "all-ones"
    return "shift-below-hh"


@pytest.mark.parametrize("batch", [2, 65])
@pytest.mark.parametrize("arrays", ["ideal", "variation"])
@pytest.mark.parametrize("kind", sorted(FOLD_NETS))
@pytest.mark.parametrize("regime, po", FOLD_REGIMES)
def test_fold_regimes_equal_walk(regime, po, kind, arrays, batch):
    """Each residual-window regime, on the packed (batch 2, ideal dense)
    and trimmed paths, matches the walk bit for bit."""
    topology, net, plan, executor = _setup(
        *FOLD_NETS[kind], po, ARRAYS[arrays], seed=7
    )
    if regime == "below-register":
        # Non-negative weights add coherently, which pushes the layer's
        # calibrated shift past the LL part's window.
        first = next(layer for layer in net.layers if hasattr(layer, "weight"))
        np.abs(first.weight, out=first.weight)
    x = np.random.default_rng(8).random((batch, *topology.input_shape))

    def fresh():
        return _program(executor, net, plan, ARRAYS[arrays], 9)

    programmed = fresh()
    compiled, fired = _run(executor, net, plan, x, programmed)
    walked, walk_fired = _run(executor, net, plan, x, fresh(), walk=True)
    step = _weight_steps(programmed)[0]
    assert step.stacked and _regime(step) == regime
    if kind == "dense":
        packed = arrays == "ideal" and batch <= PACKED_MAX_VECS
        assert (step._w_pack is not None) == packed
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired


@pytest.mark.parametrize("batch", [2, 65])
@pytest.mark.parametrize("kind", sorted(FOLD_NETS))
@pytest.mark.parametrize("arrays", ["stuck-at", "stuck-at+resilience", "drift"])
def test_cell_state_equals_walk(inline_only, arrays, kind, batch):
    """The plan stacks what the cells hold: stuck levels as exact
    integers (float32 stacks, the packed path at batch 2), spared
    columns at their spare slots with masked ones zeroed (the conv
    net's few columns fit in its spares; the dense net masks too), and
    drifted conductances in float64.  Every step runs inline and equals
    the walk, each engine's counters included."""
    condition = ARRAYS[arrays]
    topology, net, plan, executor = _setup(
        *FOLD_NETS[kind], 6, condition, seed=7
    )
    x = np.random.default_rng(8).random((batch, *topology.input_shape))
    programmed = _program(executor, net, plan, condition, 9)
    engines = [e for p in programmed for row in p.tiles for e in row]
    assert not any(e.holds_programmed for e in engines)
    if condition.resilience is not None:
        assert any(e.spared_columns for e in engines)
        assert any(e.masked_columns for e in engines) == (kind == "dense")
    with inline_only():
        compiled, fired = _run(executor, net, plan, x, programmed)
    walked, walk_fired = _run(
        executor, net, plan, x,
        _program(executor, net, plan, condition, 9), walk=True,
    )
    cdtype = np.float64 if condition.drift else np.float32
    steps = _weight_steps(programmed)
    assert all(s.cdtype == cdtype for s in steps)
    if kind == "dense":
        packed = cdtype == np.float32 and batch <= PACKED_MAX_VECS
        assert (steps[0]._w_pack is not None) == packed
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("cols", [10, 64, PACKED_MIN_COLS])
def test_micro_batch_path_by_width(inline_only, cols, batch):
    """One- and two-vector steps take the packed stack only on layers
    of at least PACKED_MIN_COLS columns, the trimmed stacks below it;
    both equal the walk."""
    topology, net, plan, executor = _setup(
        f"300-{cols}", None, "valid", 6, ARRAYS["ideal"], seed=7
    )
    x = np.random.default_rng(8).random((batch, *topology.input_shape))
    programmed = executor.program_network(net, plan)
    with inline_only():
        compiled, fired = _run(executor, net, plan, x, programmed)
    walked, walk_fired = _run(
        executor, net, plan, x, executor.program_network(net, plan),
        walk=True,
    )
    step = programmed[0].compiled_plan.steps[0]
    assert (step._w_pack is not None) == (cols >= PACKED_MIN_COLS)
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired


@pytest.mark.parametrize("batch", [2, 65])
@pytest.mark.parametrize("kind", sorted(FOLD_NETS))
def test_wide_sense_amp_runs_inline(inline_only, kind, batch):
    """At Po 18 a digitised part can exceed float32's exact integers,
    so the step stacks float64; every weight step still runs inline
    and equals the walk."""
    topology, net, plan, executor = _setup(
        *FOLD_NETS[kind], 18, ARRAYS["ideal"], seed=7
    )
    x = np.random.default_rng(8).random((batch, *topology.input_shape))
    programmed = executor.program_network(net, plan)
    with inline_only():
        compiled, fired = _run(executor, net, plan, x, programmed)
    walked, walk_fired = _run(
        executor, net, plan, x, executor.program_network(net, plan),
        walk=True,
    )
    steps = _weight_steps(programmed)
    assert all(s.stacked and s.cdtype == np.float64 for s in steps)
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired


# -- in-situ training and the SNN backend --------------------------------

#: Array condition -> (crossbar, programmed with an rng).  The trainer
#: forwards with read noise requested, so its variation arrays come
#: from a device without read noise.
LAYER_ARRAYS = {
    "ideal": (DEFAULT_CROSSBAR, False),
    "variation": (
        dataclasses.replace(
            DEFAULT_CROSSBAR,
            device=dataclasses.replace(PT_TIO2_DEVICE, read_noise_sigma=0.0),
        ),
        True,
    ),
}
#: Packed (1, 2 vectors) and trimmed (3, 65) inline paths.
LAYER_BATCHES = [1, 2, 3, 65]


def _engine_firings(engines):
    return [(e.mvm_invocations, e.sa_conversions) for e in engines]


def _trained(params, seed, batch, walk=False):
    """A fresh in-situ trainer after one epoch at ``batch``: its
    history, a final forward, and its engines' firings."""
    data = np.random.default_rng(3)
    x = data.random((130, 20))
    y = data.integers(0, 4, 130)
    weights = np.random.default_rng(6)
    net = Sequential(
        [
            Dense(20, 12, rng=weights, init="he"),
            ReLU(),
            Dense(12, 4, rng=weights),
        ]
    )
    rng = None if seed is None else np.random.default_rng(seed)
    trainer = InSituTrainer(net, params=params, rng=rng)
    with mock.patch.dict(os.environ, {"PRIME_FUSED": "0" if walk else "1"}):
        result = trainer.train(
            x, y, epochs=1, batch_size=batch, rng=np.random.default_rng(5)
        )
        out = trainer.forward(x[:batch])
    history = (result.losses, result.accuracies, result.cell_writes)
    engines = [layer.engine for layer in trainer.layers]
    return history, out, _engine_firings(engines)


@pytest.mark.parametrize("batch", LAYER_BATCHES)
@pytest.mark.parametrize("arrays", sorted(LAYER_ARRAYS))
def test_insitu_training_equals_walk(inline_only, arrays, batch):
    params, varied = LAYER_ARRAYS[arrays]
    seed = 4 if varied else None
    with inline_only():
        history, out, fired = _trained(params, seed, batch)
    walk_history, walked, walk_fired = _trained(params, seed, batch, True)
    assert history == walk_history
    np.testing.assert_array_equal(out, walked)
    assert fired == walk_fired


def test_insitu_read_noise_reproduces(inline_only):
    """With read noise on every forward runs inline over its own draw;
    a same-seed run repeats it exactly, and the walk of a same-seed
    trainer draws and trains alike."""
    with inline_only():
        first = _trained(DEFAULT_CROSSBAR, 4, 3)
        again = _trained(DEFAULT_CROSSBAR, 4, 3)
    assert first[0] == again[0] and first[2] == again[2]
    np.testing.assert_array_equal(first[1], again[1])
    walked = _trained(DEFAULT_CROSSBAR, 4, 3, walk=True)
    assert first[0] == walked[0] and first[2] == walked[2]
    np.testing.assert_array_equal(first[1], walked[1])


def test_delegating_steps_build_no_stack(inline_only):
    """A weight step caches its count stacks on its first noise-free
    inline run only: read-noise run_layer calls (every in-situ forward
    on noisy arrays) run inline over a per-call stack and cache none,
    and a PRIME_FUSED=0 forward delegates and builds none."""
    data = np.random.default_rng(3)
    net = Sequential([Dense(20, 12, rng=data), ReLU(), Dense(12, 4, rng=data)])
    trainer = InSituTrainer(
        net, params=DEFAULT_CROSSBAR, rng=np.random.default_rng(4)
    )
    with inline_only():
        trainer.forward(data.random((5, 20)))
    for layer in trainer.layers:
        step = layer.programmed.compiled_plan.steps[0]
        assert step.in_fmt is not None and not step.stacked
    topology, net, plan, executor = _setup(
        f"300-{PACKED_MIN_COLS}-10", None, "valid", 6, ARRAYS["ideal"], 7
    )
    programmed = executor.program_network(net, plan)
    x = np.random.default_rng(8).random((2, *topology.input_shape))
    _run(executor, net, plan, x, programmed, walk=True)
    steps = _weight_steps(programmed)
    assert all(s.in_fmt is not None for s in steps)
    assert not any(s.stacked or s._w_pack is not None for s in steps)
    _run(executor, net, plan, x, programmed)
    assert all(s.stacked for s in steps)
    assert steps[0]._w_pack is not None


@pytest.fixture(scope="module")
def snn():
    """A converted 300-24-5 ReLU net: its first layer's 301 rows span a
    full 256-row block and a tail."""
    weights = np.random.default_rng(11)
    net = Sequential(
        [
            Dense(300, 24, rng=weights, init="he"),
            ReLU(),
            Dense(24, 5, rng=weights),
        ]
    )
    x = np.random.default_rng(12).random((65, 300))
    return SpikingNetwork.from_ann(net, x), x


def _spikes(snn, params, seed, x, with_noise=False, walk=False):
    """Spike counts of a fresh crossbar programming, and its firings."""
    model, _ = snn
    rng = None if seed is None else np.random.default_rng(seed)
    model.program_crossbars(params=params, rng=rng)
    with mock.patch.dict(os.environ, {"PRIME_FUSED": "0" if walk else "1"}):
        result = model.run(
            x, timesteps=6, rng=np.random.default_rng(13),
            backend="crossbar", with_noise=with_noise,
        )
    engines = [e for layer in model.layers for row in layer.tiles for e in row]
    return result.spike_counts, _engine_firings(engines)


@pytest.mark.parametrize("batch", LAYER_BATCHES)
@pytest.mark.parametrize("arrays", sorted(LAYER_ARRAYS))
def test_snn_equals_walk(inline_only, snn, arrays, batch):
    params, varied = LAYER_ARRAYS[arrays]
    seed = 8 if varied else None
    x = snn[1][:batch]
    with inline_only():
        counts, fired = _spikes(snn, params, seed, x)
    walked, walk_fired = _spikes(snn, params, seed, x, walk=True)
    np.testing.assert_array_equal(counts, walked)
    assert fired == walk_fired
    assert counts.sum() > 0


def test_snn_read_noise_reproduces(inline_only, snn):
    """Noisy timesteps run inline, reproduce under a seed, and equal
    the walk of a same-seed programming."""
    x = snn[1][:3]
    with inline_only():
        first = _spikes(snn, DEFAULT_CROSSBAR, 8, x, with_noise=True)
        again = _spikes(snn, DEFAULT_CROSSBAR, 8, x, with_noise=True)
    np.testing.assert_array_equal(first[0], again[0])
    assert first[1] == again[1]
    walked = _spikes(snn, DEFAULT_CROSSBAR, 8, x, with_noise=True, walk=True)
    np.testing.assert_array_equal(first[0], walked[0])
    assert first[1] == walked[1]
