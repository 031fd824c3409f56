"""Shared fixtures for the PRIME reproduction test suite."""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
from unittest import mock

import numpy as np
import pytest

from repro.crossbar.layer import ProgrammedLayer
from repro.device.cell import scoped_noise_stream
from repro.nn.datasets import synthetic_mnist
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.perf import blas
from repro.perf.plan import run_layer


def _float_im2col(layer, act):
    """A stride-1 conv's float patch matrix over image batch ``act``.

    One row per output pixel, columns in ``(di * k + dj) * c + ch``
    order (the layer's weight-row order), plus the ``(batch, oh, ow)``
    geometry.
    """
    p, k = layer.pad, layer.kernel
    act = np.pad(act, ((0, 0), (p, p), (p, p), (0, 0)))
    b, h, w, c = act.shape
    oh, ow = h - k + 1, w - k + 1
    patches = np.empty((b, oh, ow, k * k * c))
    for i in range(k):
        for j in range(k):
            patches[..., (i * k + j) * c : (i * k + j + 1) * c] = act[
                :, i : i + oh, j : j + ow
            ]
    return patches.reshape(b * oh * ow, k * k * c), (b, oh, ow)


@pytest.fixture(scope="session")
def float_im2col():
    """The float im2col of a stride-1 conv: the reference the plan's
    integer code gather (which the command runner shares) is checked
    against."""
    return _float_im2col


def _firings(engines) -> list[tuple[int, int]]:
    """Each engine's MVM invocation and sense-amp conversion counts."""
    return [(e.mvm_invocations, e.sa_conversions) for e in engines]


@contextlib.contextmanager
def _inline_only():
    """Fail any ``ProgrammedLayer.mvm_batch`` call: inside, every
    weight step must run inline instead of delegating."""
    delegated = AssertionError("a weight step delegated")
    with mock.patch.object(
        ProgrammedLayer, "mvm_batch", side_effect=delegated
    ):
        yield


@pytest.fixture(scope="session")
def inline_only():
    """:func:`_inline_only`, for tests that drive whole runs."""
    return _inline_only


@pytest.fixture(scope="session")
def layer_runs():
    """``layer_runs(programmed, x, with_noise=False)``: one
    :func:`~repro.perf.plan.run_layer` call inline and one under
    ``PRIME_FUSED=0``, as ``((out, firings), (walked,
    walk_firings))``; firings are each engine's invocation and
    conversion increments.  The walk runs a fresh twin of
    ``programmed`` over the same tiles and calibration, so it never
    reuses the constants ``programmed``'s memoised plan baked.  Each
    call draws its read noise from its own stream of one seed
    (:func:`~repro.device.cell.scoped_noise_stream`), so a noisy inline
    call and its walk read the cells under equal draws."""

    def counted(programmed, x, with_noise, walk):
        engines = [e for row in programmed.tiles for e in row]
        before = _firings(engines)
        fused = "0" if walk else "1"
        with mock.patch.dict(os.environ, {"PRIME_FUSED": fused}):
            with scoped_noise_stream(np.random.default_rng(0)):
                out = run_layer(programmed, x, with_noise)
        after = _firings(engines)
        return out, [
            (a[0] - b[0], a[1] - b[1]) for a, b in zip(after, before)
        ]

    def runs(programmed, x, with_noise=False):
        with _inline_only():
            inline = counted(programmed, x, with_noise, False)
        twin = ProgrammedLayer(programmed.tiles, programmed.w_fmt)
        twin.in_fmt = programmed.in_fmt
        twin.output_shift = programmed.output_shift
        return inline, counted(twin, x, with_noise, True)

    return runs


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministically seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_xbar() -> CrossbarParams:
    """A 32×32 crossbar for fast functional tests."""
    return CrossbarParams(rows=32, cols=32, sense_amps=8)


@pytest.fixture(scope="session")
def tiny_digit_data() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A synthetic digit dataset shared across tests."""
    x, y = synthetic_mnist(4400, flat=True, seed=42)
    return x[:4000], y[:4000], x[4000:], y[4000:]


@pytest.fixture(scope="session")
def trained_tiny_mlp(tiny_digit_data):
    """A trained 784-64-10 MLP (ReLU hidden layer) on digits."""
    x_train, y_train, x_test, y_test = tiny_digit_data
    topology = parse_topology("tiny-mlp", "784-64-10")
    net = topology.build(
        rng=np.random.default_rng(5), hidden_activation="relu"
    )
    net.train_sgd(
        x_train,
        y_train,
        epochs=15,
        batch_size=32,
        learning_rate=0.1,
        rng=np.random.default_rng(6),
        val_x=x_test,
        val_labels=y_test,
    )
    return topology, net


@pytest.fixture(scope="session")
def trained_tiny_cnn():
    """A trained small CNN (conv3x4-pool-...-10) on 2-D digits."""
    x, y = synthetic_mnist(1600, seed=43)
    x_train, y_train = x[:1200], y[:1200]
    x_test, y_test = x[1200:], y[1200:]
    topology = parse_topology(
        "tiny-cnn", "conv3x4-pool-676-32-10", input_shape=(28, 28, 1)
    )
    net = topology.build(rng=np.random.default_rng(7))
    net.train_sgd(
        x_train,
        y_train,
        epochs=6,
        batch_size=32,
        learning_rate=0.05,
        rng=np.random.default_rng(8),
        val_x=x_test,
        val_labels=y_test,
    )
    return topology, net, x_test, y_test


class SpyBudget(blas.BlasBudget):
    """A :class:`~repro.perf.blas.BlasBudget` over the real OpenBLAS
    (a no-op budget where there is none) that records each forward's
    exactness and every thread count it sets.  The first ``meet``
    forwards wait for each other inside the budget, so they are in
    flight together whatever the timing."""

    def __init__(self, threads, meet: int = 0) -> None:
        self.sets: list[int] = []
        self.exact: list[bool] = []
        self._getter = None
        if threads is not None:
            setter, getter = threads

            def spy(n: int) -> None:
                self.sets.append(n)
                setter(n)

            threads = (spy, getter)
            self._getter = getter
        super().__init__(threads)
        self._tickets = itertools.count()
        self._meet = threading.Barrier(meet) if meet else None

    @contextlib.contextmanager
    def forward(self, exact: bool):
        self.exact.append(exact)
        with super().forward(exact):
            if self._meet and next(self._tickets) < self._meet.parties:
                self._meet.wait(timeout=120.0)
            yield

    @property
    def broken(self) -> bool:
        """Whether a meeting forward gave up waiting for the others."""
        return self._meet is not None and self._meet.broken

    def threads(self) -> int:
        """The thread count OpenBLAS holds now."""
        return self.base if self._getter is None else int(self._getter())


@pytest.fixture
def blas_spy(monkeypatch):
    """Install a :class:`SpyBudget` as the process's BLAS budget:
    ``blas_spy(meet=0)`` returns it.  On teardown OpenBLAS must be back
    at ``base``."""
    threads = blas.openblas_threads()
    installed = []

    def install(meet: int = 0) -> SpyBudget:
        spy = SpyBudget(threads, meet)
        monkeypatch.setattr(blas, "_budget", spy)
        installed.append(spy)
        return spy

    yield install
    for spy in installed:
        assert spy.threads() == spy.base
