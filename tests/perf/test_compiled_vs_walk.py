"""Differential test: the compiled plan against the per-engine walk.

``run_functional`` has one fast path, the compiled plan, and one
reference, ``PRIME_FUSED=0``, under which every weight step walks the
engines.  Over random small networks (dense-only, and conv-pool-dense),
layer widths on both sides of the 256-row block, SA output widths,
array conditions and batch sizes around the calibration prefix, the two
must agree bit for bit and charge every engine the same firings and
conversions; chunked streaming must not change the output; and noisy
runs must reproduce under a fixed seed.  Fixed cases force each of the
plan's SA regimes (see ``_WeightStep._lower``) on dense and conv steps,
since random draws reach the rarer two only by chance.
"""

import dataclasses
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.crossbar.sense import part_window
from repro.nn.topology import parse_topology
from repro.params.crossbar import DEFAULT_CROSSBAR
from repro.params.prime import DEFAULT_PRIME_CONFIG
from repro.params.reram import PT_TIO2_DEVICE
from repro.perf.plan import PACKED_MAX_VECS, _WeightStep

#: A device without programming variation or read noise: stuck-at
#: faults then leave every cell on the level lattice, the regime only
#: the walk evaluates.
QUIET_DEVICE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
#: Array condition -> (device, programmed with an rng, stuck-at rate).
ARRAYS = {
    "ideal": (PT_TIO2_DEVICE, False, 0.0),
    "variation": (PT_TIO2_DEVICE, True, 0.0),
    "stuck-at": (QUIET_DEVICE, True, 0.02),
    "stuck-at+variation": (PT_TIO2_DEVICE, True, 0.02),
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
        (e.mvm_invocations, e.sense.conversions)
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


def _setup(text, input_shape, padding, po, device, rate, seed):
    """``(topology, net, plan, executor)`` for one case."""
    xbar = dataclasses.replace(
        DEFAULT_CROSSBAR,
        output_bits=po,
        device=device,
        fault_rate_hrs=rate / 2,
        fault_rate_lrs=rate / 2,
    )
    config = dataclasses.replace(DEFAULT_PRIME_CONFIG, crossbar=xbar)
    topology = parse_topology(
        "differential", text, input_shape=input_shape, conv_padding=padding
    )
    net = topology.build(rng=np.random.default_rng(seed))
    plan = PrimeCompiler(config).compile(topology)
    return topology, net, plan, PrimeExecutor(config)


@settings(max_examples=60, deadline=None)
@given(
    network=networks(),
    po=st.integers(2, 12),
    arrays=st.sampled_from(sorted(ARRAYS)),
    batch=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_equals_walk(network, po, arrays, batch, seed):
    device, varied, rate = ARRAYS[arrays]
    topology, net, plan, executor = _setup(
        *network, po, device, rate, seed
    )
    x = np.random.default_rng(seed + 1).random(
        (batch, *topology.input_shape)
    )

    def fresh():
        rng = np.random.default_rng(seed + 2) if varied else None
        return executor.program_network(net, plan, rng=rng)

    # Each run starts from a fresh same-seed copy, so each freezes its
    # own calibration from this batch's prefix on its own path.
    compiled, fired = _run(executor, net, plan, x, fresh())
    walked, walk_fired = _run(executor, net, plan, x, fresh(), walk=True)
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired
    assert [inv for inv, _ in fired] == [batch * v for v in _vectors(plan)]
    chunked, _ = _run(executor, net, plan, x, fresh(), chunk_bytes=1)
    np.testing.assert_array_equal(compiled, chunked)
    if varied and device.read_noise_sigma > 0.0:
        noisy = [
            _run(executor, net, plan, x, fresh(), with_noise=True)[0]
            for _ in range(2)
        ]
        np.testing.assert_array_equal(noisy[0], noisy[1])


#: One ~256-row weight layer of each kind, first in its network: a
#: dense layer over two row blocks (full + tail) and a conv layer.
FOLD_NETS = {
    "dense": ("300-10", None, "valid"),
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
    pre, _ = part_window(step.kernel.spec, step.shift)
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
    device, varied, rate = ARRAYS[arrays]
    topology, net, plan, executor = _setup(
        *FOLD_NETS[kind], po, device, rate, seed=7
    )
    if regime == "below-register":
        # Non-negative weights add coherently, which pushes the layer's
        # calibrated shift past the LL part's window.
        first = next(layer for layer in net.layers if hasattr(layer, "weight"))
        np.abs(first.weight, out=first.weight)
    x = np.random.default_rng(8).random((batch, *topology.input_shape))

    def fresh():
        rng = np.random.default_rng(9) if varied else None
        return executor.program_network(net, plan, rng=rng)

    programmed = fresh()
    compiled, fired = _run(executor, net, plan, x, programmed)
    walked, walk_fired = _run(executor, net, plan, x, fresh(), walk=True)
    step = next(
        s
        for s in programmed[0].compiled_plan.steps
        if isinstance(s, _WeightStep)
    )
    assert step.inline_ok and _regime(step) == regime
    if kind == "dense":
        packed = arrays == "ideal" and batch <= PACKED_MAX_VECS
        assert (step._w_pack is not None) == packed
    np.testing.assert_array_equal(compiled, walked)
    assert fired == walk_fired
