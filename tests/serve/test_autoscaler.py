"""Reactive autoscaler: policy decisions, hysteresis, cooldown."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.autoscaler import Autoscaler, AutoscalerPolicy

pytestmark = pytest.mark.serve


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class FakeRuntime:
    """Just enough of ServingRuntime for the controller."""

    def __init__(self, replicas: int = 1) -> None:
        self.name = "fake"
        self._replicas = replicas
        self.scale_calls: list[int] = []

    @property
    def replicas(self) -> int:
        return self._replicas

    def scale_to(self, replicas: int) -> float:
        self.scale_calls.append(replicas)
        grew = replicas > self._replicas
        self._replicas = replicas
        return 0.01 if grew else 0.0


def _autoscaler(replicas=1, **policy_kw):
    defaults = dict(
        min_replicas=1,
        max_replicas=4,
        window_s=1.0,
        cooldown_s=0.0,
        target_utilization=0.8,
        shrink_margin=0.5,
        service_rate_rps=100.0,
    )
    defaults.update(policy_kw)
    clock = FakeClock()
    runtime = FakeRuntime(replicas)
    return Autoscaler(runtime, AutoscalerPolicy(**defaults), clock=clock), clock


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_replicas=0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(window_s=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(target_utilization=1.5)
        with pytest.raises(ConfigurationError):
            # shrink margin must stay strictly under the grow target
            AutoscalerPolicy(target_utilization=0.8, shrink_margin=0.8)


class TestRateWindow:
    def test_rate_counts_window_only(self):
        scaler, clock = _autoscaler(window_s=1.0)
        for t in (0.1, 0.2, 0.3):
            scaler.observe(t)
        clock.now = 0.5
        assert scaler.rate() == pytest.approx(3.0)
        clock.now = 1.25  # 0.1 and 0.2 age out
        assert scaler.rate() == pytest.approx(1.0)


class TestDecisions:
    def test_grow_straight_to_demand(self):
        scaler, _ = _autoscaler(replicas=1)
        # 250 rps over 80 rps/replica effective target → 4 replicas.
        assert scaler.desired(250.0, current=1) == 4

    def test_grow_clamped_to_max(self):
        scaler, _ = _autoscaler(replicas=1, max_replicas=3)
        assert scaler.desired(10_000.0, current=1) == 3

    def test_steady_traffic_holds(self):
        scaler, _ = _autoscaler(replicas=2)
        # 2 replicas: grow above 160, shrink below 50 — hold between.
        assert scaler.desired(100.0, current=2) == 2

    def test_shrink_one_step_with_hysteresis(self):
        scaler, _ = _autoscaler(replicas=3)
        # shrink threshold for 3 → 2 is 0.5 * 100 * 2 = 100 rps
        assert scaler.desired(80.0, current=3) == 2
        assert scaler.desired(120.0, current=3) == 3

    def test_never_below_min(self):
        scaler, _ = _autoscaler(replicas=1)
        assert scaler.desired(0.0, current=1) == 1


class TestStep:
    def test_step_executes_and_records_event(self):
        scaler, clock = _autoscaler(replicas=1)
        for t in (0.9, 0.92, 0.94, 0.96, 0.98):
            scaler.observe(t)
        clock.now = 1.0
        # rate = 5/1.0 = 5 rps < 80: no action
        assert scaler.step() is None
        for t in [1.0 + i * 0.005 for i in range(200)]:
            scaler.observe(t)
        clock.now = 2.0
        event = scaler.step()
        assert event is not None
        assert event.direction == "grow"
        assert event.from_replicas == 1
        assert event.to_replicas > 1
        assert event.bringup_s > 0.0
        assert scaler.events == [event]
        assert scaler.runtime.scale_calls == [event.to_replicas]

    def test_cooldown_gates_actions(self):
        scaler, clock = _autoscaler(replicas=1, cooldown_s=10.0)
        for t in [i * 0.005 for i in range(200)]:
            scaler.observe(t)
        clock.now = 1.0
        assert scaler.step() is not None
        clock.now = 2.0  # still cooling down
        for t in [2.0 + i * 0.001 for i in range(500)]:
            scaler.observe(t)
        assert scaler.step() is None
        clock.now = 11.5  # cooldown expired (window now empty → shrink)
        event = scaler.step()
        assert event is not None and event.direction == "shrink"

    def test_caller_clamp_wins(self):
        scaler, clock = _autoscaler(replicas=1)
        for t in [i * 0.002 for i in range(500)]:
            scaler.observe(t)
        clock.now = 1.0
        event = scaler.step(max_replicas=2)
        assert event is not None
        assert event.to_replicas == 2

    def test_caller_clamp_never_forces_shrink(self):
        scaler, clock = _autoscaler(replicas=3)
        for t in [i * 0.005 for i in range(200)]:
            scaler.observe(t)
        clock.now = 1.0
        # clamp below current replicas must not trigger a shrink when
        # the rate still justifies the current grant
        assert scaler.step(max_replicas=1) is None
        assert scaler.runtime.replicas == 3


class TestRestartHysteresis:
    def test_note_restart_marks_the_last_restart(self):
        scaler, clock = _autoscaler()
        scaler.note_restart(now=1.0)
        scaler.note_restart(now=2.0)
        assert scaler._last_restart_s == 2.0
        clock.now = 7.0
        scaler.note_restart()
        assert scaler._last_restart_s == 7.0

    def test_shrinks_held_after_a_restart(self):
        scaler, clock = _autoscaler(replicas=3, cooldown_s=1.0)
        # Empty window → rate 0 → policy wants a shrink.
        clock.now = 99.5
        scaler.note_restart(now=99.0)
        # Hold horizon: the cooldown (1.0) after t=99.
        assert scaler.step() is None
        assert scaler.runtime.replicas == 3
        clock.now = 99.9  # still inside 99 + 1
        assert scaler.step() is None
        clock.now = 100.1  # past the horizon
        event = scaler.step()
        assert event is not None and event.direction == "shrink"

    def test_grows_unaffected_by_restart_hold(self):
        # At t=1.0 the restart at t=0.9 still holds (cooldown 1.0).
        idle, clock = _autoscaler(replicas=3, cooldown_s=1.0)
        idle.note_restart(now=0.9)
        clock.now = 1.0
        assert idle.step() is None  # the hold stops the shrink
        scaler, clock = _autoscaler(replicas=1, cooldown_s=1.0)
        scaler.note_restart(now=0.9)
        for t in [i * 0.005 for i in range(200)]:
            scaler.observe(t)
        clock.now = 1.0
        # A crash-recovering fleet under load must still scale UP.
        event = scaler.step()
        assert event is not None and event.direction == "grow"
