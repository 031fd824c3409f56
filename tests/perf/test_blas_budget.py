"""The process-wide BLAS thread budget (``repro.perf.blas``).

The contract under test: while two or more exact forwards execute and
no inexact one does, OpenBLAS runs ``max(1, base // active)`` threads;
at every other time it runs ``base``.  Inexact forwards (arrays
programmed with variation, read noise) never run narrowed, an
exception inside ``CompiledPlan.execute`` leaves nothing narrowed, and
without a library or at ``base`` 1 the setter is never called.  The
unit tests drive real plans from several threads through a fake
setter/getter pair, meeting at a barrier inside the step loop; the
integration test serves concurrent exact batches against the real
library and checks the replies bit for bit.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.perf import blas
from repro.perf.plan import _ForwardStep
from repro.resilience import ResiliencePolicy
from repro.serve import ServeConfig, ServingRuntime

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
NOISY_READS = dataclasses.replace(PT_TIO2_DEVICE, programming_sigma=0.0)
SMALL_ORG = MemoryOrganization(
    subarrays_per_bank=8,
    mats_per_subarray=16,
    mat_rows=32,
    mat_cols=32,
)
TOPOLOGY = parse_topology("blas-tiny", "24-20-6")
X = np.random.default_rng(11).standard_normal((20, 24))


@pytest.fixture(autouse=True)
def clean_telemetry():
    telemetry.disable()
    yield
    telemetry.disable()


def _config(device) -> PrimeConfig:
    return PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, device=device
        ),
        organization=SMALL_ORG,
        resilience=ResiliencePolicy(),
    )


class FakeBlas:
    """Stands in for OpenBLAS's ``(set, get)`` thread-count pair."""

    def __init__(self, base: int) -> None:
        self.threads = base
        self.calls: list[int] = []

    def set(self, n: int) -> None:
        # The real setter is a ctypes call, which releases the GIL.
        time.sleep(0)
        self.calls.append(n)
        self.threads = n

    def get(self) -> int:
        return self.threads


def _install(monkeypatch, threads) -> blas.BlasBudget:
    budget = blas.BlasBudget(threads)
    monkeypatch.setattr(blas, "_budget", budget)
    return budget


def _plan(device, rng=None):
    """A calibrated compiled plan over ``device``'s arrays."""
    config = _config(device)
    net = TOPOLOGY.build(rng=np.random.default_rng(2))
    mapping = PrimeCompiler(config).compile(TOPOLOGY)
    executor = PrimeExecutor(config)
    programmed = executor.program_network(net, mapping, rng=rng)
    executor.run_functional(net, mapping, X, programmed=programmed)
    return programmed[0].compiled_plan


@pytest.fixture(scope="module")
def exact_plan():
    plan = _plan(NOISE_FREE)
    assert plan.exact(False) and plan.exact(True)
    return plan


@pytest.fixture(scope="module")
def varied_plan():
    plan = _plan(PT_TIO2_DEVICE, np.random.default_rng(5))
    assert not plan.exact(False)
    return plan


@pytest.fixture(scope="module")
def noisy_plan():
    """Ideal arrays of a device with read noise: exact only with the
    noise off."""
    plan = _plan(NOISY_READS, np.random.default_rng(5))
    assert plan.exact(False) and not plan.exact(True)
    return plan


class _Meet:
    """Stands in for a plan's non-weight step: every forward waits
    there for all the others, records the thread count the fake holds
    while they are all in flight, then waits again so that none leaves
    the budget before all have recorded."""

    def __init__(self, step, barrier, fake, seen) -> None:
        self.step = step
        self.barrier = barrier
        self.fake = fake
        self.seen = seen

    def valid(self) -> bool:
        return True

    def run(self, act, with_noise, store, fused):
        self.barrier.wait(timeout=60.0)
        self.seen.append(self.fake.threads)
        self.barrier.wait(timeout=60.0)
        return self.step.run(act, with_noise, store, fused)


def _swap_forward_step(monkeypatch, plan, make) -> None:
    """Replace ``plan``'s non-weight step with ``make(step)`` for the
    test's duration."""
    steps = list(plan.steps)
    i = next(k for k, s in enumerate(steps) if isinstance(s, _ForwardStep))
    steps[i] = make(steps[i])
    monkeypatch.setattr(plan, "steps", steps)


def _concurrently(monkeypatch, fake, forwards) -> list[int]:
    """Run each ``(plan, with_noise)`` forward on its own thread; they
    meet inside the step loop.  Returns the thread counts seen there."""
    barrier = threading.Barrier(len(forwards))
    seen: list[int] = []
    for plan in {id(plan): plan for plan, _ in forwards}.values():
        _swap_forward_step(
            monkeypatch,
            plan,
            lambda step: _Meet(step, barrier, fake, seen),
        )
    errors: list[BaseException] = []

    def run(plan, with_noise):
        try:
            plan.execute(X[:4], with_noise)
        except BaseException as exc:  # re-raised on the test thread
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=forward) for forward in forwards
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive()
    if errors:
        raise errors[0]
    return seen


class TestBudgetCounts:
    def test_lone_forward_keeps_base(self, monkeypatch, exact_plan):
        fake = FakeBlas(4)
        _install(monkeypatch, (fake.set, fake.get))
        seen = _concurrently(monkeypatch, fake, [(exact_plan, False)])
        assert seen == [4]
        assert fake.calls == []

    @pytest.mark.parametrize("base,narrow", [(2, 1), (3, 1), (8, 4)])
    def test_two_exact_forwards_split_the_threads(
        self, monkeypatch, exact_plan, base, narrow
    ):
        fake = FakeBlas(base)
        budget = _install(monkeypatch, (fake.set, fake.get))
        seen = _concurrently(
            monkeypatch, fake, [(exact_plan, False), (exact_plan, False)]
        )
        assert seen == [narrow, narrow]
        assert fake.calls == [narrow, base]
        assert fake.threads == base
        assert (budget._active, budget._inexact) == (0, 0)

    def test_three_exact_forwards(self, monkeypatch, exact_plan):
        fake = FakeBlas(8)
        _install(monkeypatch, (fake.set, fake.get))
        seen = _concurrently(monkeypatch, fake, [(exact_plan, False)] * 3)
        assert seen == [2, 2, 2]
        assert fake.threads == 8

    @pytest.mark.parametrize(
        "kind,with_noise", [("variation", False), ("read-noise", True)]
    )
    def test_inexact_forward_keeps_base(
        self, monkeypatch, exact_plan, varied_plan, noisy_plan, kind,
        with_noise,
    ):
        plan = {"variation": varied_plan, "read-noise": noisy_plan}[kind]
        fake = FakeBlas(4)
        _install(monkeypatch, (fake.set, fake.get))
        seen = _concurrently(
            monkeypatch, fake, [(exact_plan, False), (plan, with_noise)]
        )
        assert seen == [4, 4]
        assert fake.calls == []

    def test_inexact_entry_restores_base_first(self):
        """Nested on one thread, so the order is fixed: an inexact
        forward entering while two exact ones run narrowed restores
        ``base`` before its body runs, and nothing narrows until it
        leaves."""
        fake = FakeBlas(4)
        budget = blas.BlasBudget((fake.set, fake.get))
        with budget.forward(True):
            with budget.forward(True):
                assert fake.threads == 2
                with budget.forward(False):
                    assert fake.threads == 4
                    with budget.forward(True):
                        assert fake.threads == 4
                assert fake.threads == 2
        assert fake.threads == 4
        assert fake.calls == [2, 4, 2, 4]

    def test_racing_threads_lose_no_update(self):
        """Eight threads, more than the cores, enter and leave the
        budget with a short switch interval, mixing exact and inexact
        forwards: every inexact body sees ``base``, and the counters
        and the count end where they started."""
        fake = FakeBlas(4)
        budget = blas.BlasBudget((fake.set, fake.get))
        narrowed_inexact: list[int] = []

        def work(k: int) -> None:
            for i in range(300):
                exact = (i + k) % 3 != 0
                with budget.forward(exact):
                    time.sleep(0)
                    if not exact and fake.threads != 4:
                        narrowed_inexact.append(fake.threads)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert narrowed_inexact == []
        assert (budget._active, budget._inexact) == (0, 0)
        assert fake.threads == 4

    def test_exception_restores_count_and_counters(
        self, monkeypatch, exact_plan
    ):
        fake = FakeBlas(4)
        budget = _install(monkeypatch, (fake.set, fake.get))

        class Boom:
            def run(self, act, with_noise, store, fused):
                assert fake.threads == 2
                raise RuntimeError("step failed")

        _swap_forward_step(monkeypatch, exact_plan, lambda step: Boom())
        with budget.forward(True):
            with pytest.raises(RuntimeError, match="step failed"):
                exact_plan.execute(X[:4])
            assert fake.threads == 4
            assert (budget._active, budget._inexact) == (1, 0)
        assert (budget._active, budget._inexact) == (0, 0)
        assert exact_plan.leases_outstanding == 0

    @pytest.mark.parametrize("threads", ["base1", "missing"])
    def test_no_setter_calls_without_threads_to_split(
        self, monkeypatch, exact_plan, threads
    ):
        fake = FakeBlas(1)
        if threads == "base1":
            _install(monkeypatch, (fake.set, fake.get))
        else:
            monkeypatch.setattr(blas, "_budget", None)
            monkeypatch.setattr(blas, "openblas_threads", lambda: None)
        seen = _concurrently(
            monkeypatch, fake, [(exact_plan, False), (exact_plan, False)]
        )
        assert seen == [1, 1]
        assert fake.calls == []
        assert blas._budget.base == 1

    def test_narrowed_counter(self, monkeypatch, exact_plan):
        """``perf.blas.narrowed`` counts forwards that start below
        ``base``: the second of two concurrent exact forwards."""
        telemetry.enable(fresh=True)
        fake = FakeBlas(2)
        budget = _install(monkeypatch, (fake.set, fake.get))
        _concurrently(
            monkeypatch, fake, [(exact_plan, False), (exact_plan, False)]
        )
        assert telemetry.counter_total("perf.blas.narrowed") == 1
        with budget.forward(True):
            pass
        assert telemetry.counter_total("perf.blas.narrowed") == 1


class TestRealOpenBlas:
    @pytest.mark.serve
    def test_concurrent_exact_batches_narrow_bit_identically(
        self, blas_spy
    ):
        """Two replica threads serve 256-wide exact batches at once:
        the budget splits the real library's threads (when it has
        more than one) and every reply equals the serial oracle."""
        net = TOPOLOGY.build(rng=np.random.default_rng(2))
        pool = np.random.default_rng(12).standard_normal((256, 24))
        with ServingRuntime(
            net,
            TOPOLOGY,
            config=_config(NOISE_FREE),
            serve_config=ServeConfig(mode="thread", max_batch=256),
            calibration=X,
            max_replicas=2,
        ) as runtime:
            spy = blas_spy(meet=2)
            disp = runtime.dispatcher
            futures = [disp.dispatch(pool, replica=r) for r in (0, 1)]
            served = [f.result(timeout=300.0).value for f in futures]
            reference = runtime.reference(pool)
        assert all(spy.exact)
        if spy.base > 1:
            assert spy.sets[0] == max(1, spy.base // 2)
            assert spy.sets[-1] == spy.base
        else:
            assert spy.sets == []
        for result in served:
            np.testing.assert_array_equal(result, reference)
