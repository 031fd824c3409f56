"""Reactive replica autoscaling for serving deployments.

PRIME's banks are a fixed pool of 64 NPUs shared by every resident
model; how many replica bank-groups each model *should* hold depends
on its offered load, which moves.  :class:`Autoscaler` closes that
loop reactively: it watches a sliding window of admitted arrival
rate, compares it against the deployment's per-replica service
capacity, and grows or shrinks the grant through
``ServingRuntime.scale_to``.  Every replica serves the deployment's
one programmed copy, so a scale action programs no crossbar: it
starts or retires replica threads, and the telemetry records its
measured cost.

Policy shape is deliberately simple (the classic queue-theoretic
reactive controller):

* **grow** when the windowed rate exceeds ``target_utilization`` of
  current capacity — straight to the replica count that brings
  utilization back under target (clamped to ``max_replicas`` and the
  free-bank pool);
* **shrink** one replica at a time, only when the rate would still
  leave the *smaller* grant below ``shrink_margin`` of its capacity
  (hysteresis — the grow and shrink thresholds never overlap, so the
  controller cannot oscillate on steady traffic);
* a ``cooldown_s`` gate between actions bounds scaling churn.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["AutoscalerPolicy", "ScaleEvent", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Knobs for the reactive controller."""

    min_replicas: int = 1
    max_replicas: int = 8
    #: Sliding window over which the arrival rate is estimated.
    window_s: float = 0.25
    #: Minimum gap between two scaling actions.
    cooldown_s: float = 0.5
    #: Grow when rate > target_utilization * capacity.
    target_utilization: float = 0.8
    #: Shrink only when rate < shrink_margin * capacity of the
    #: next-smaller grant (must stay below target_utilization).
    shrink_margin: float = 0.5
    #: Per-replica service capacity in requests/s.  ``None`` derives
    #: it from the scheduler's analytical throughput model; tests set
    #: it explicitly for full determinism.
    service_rate_rps: float | None = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ConfigurationError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ConfigurationError(
                "max_replicas must be >= min_replicas"
            )
        if self.window_s <= 0 or self.cooldown_s < 0:
            raise ConfigurationError("invalid window/cooldown")
        if not 0 < self.target_utilization <= 1:
            raise ConfigurationError(
                "target_utilization must be in (0, 1]"
            )
        if not 0 <= self.shrink_margin < self.target_utilization:
            raise ConfigurationError(
                "shrink_margin must be in [0, target_utilization)"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One executed scaling action (for reports and assertions)."""

    t_s: float
    tenant: str
    from_replicas: int
    to_replicas: int
    #: Measured wall-clock cost of bringing up the new replicas (no
    #: mode programs the copy again; 0.0 for shrinks).
    bringup_s: float
    rate_rps: float

    @property
    def direction(self) -> str:
        return "grow" if self.to_replicas > self.from_replicas else "shrink"


class Autoscaler:
    """Drives ``runtime.scale_to`` from observed arrival rate.

    Owned by the cluster loop: call :meth:`observe` once per admitted
    request and :meth:`step` once per loop iteration.  The free-bank
    feasibility clamp lives in the caller (the cluster knows the
    shared scheduler); this class only decides the *desired* count.
    """

    def __init__(
        self,
        runtime,
        policy: AutoscalerPolicy | None = None,
        clock=time.perf_counter,
    ) -> None:
        self.runtime = runtime
        self.policy = policy or AutoscalerPolicy()
        self.clock = clock
        self._arrivals: deque[float] = deque()
        self._last_action_s = -float("inf")
        self._last_restart_s = -float("inf")
        self.events: list[ScaleEvent] = []

    # -- fault-tolerance feedback ---------------------------------------

    def note_restart(self, now: float | None = None) -> None:
        """Record one replica restart.

        Fed by the cluster loop from ``ServingRuntime.restarts``.  A
        fleet that is actively crash-recovering should not also shrink:
        the freed banks would likely be re-grown moments later, so
        :meth:`step` holds shrinks for ``cooldown_s`` after the last
        restart.
        """
        self._last_restart_s = self.clock() if now is None else now

    # -- observation ----------------------------------------------------

    def observe(self, t_s: float | None = None) -> None:
        """Record one admitted arrival at time ``t_s``."""
        self._arrivals.append(self.clock() if t_s is None else t_s)

    def rate(self, now: float | None = None) -> float:
        """Admitted arrivals/s over the sliding window ending at now."""
        now = self.clock() if now is None else now
        cutoff = now - self.policy.window_s
        while self._arrivals and self._arrivals[0] < cutoff:
            self._arrivals.popleft()
        return len(self._arrivals) / self.policy.window_s

    # -- control --------------------------------------------------------

    def capacity_per_replica(self) -> float:
        """Requests/s one replica sustains (policy override or model)."""
        if self.policy.service_rate_rps is not None:
            return self.policy.service_rate_rps
        # The scheduler's analytical throughput is for the whole grant;
        # normalise to one replica.
        scheduler = self.runtime.scheduler
        total = scheduler.throughput(self.runtime.name)
        return total / max(self.runtime.deployment.replicas, 1)

    def desired(self, rate_rps: float, current: int) -> int:
        """Replica count the policy wants for ``rate_rps``."""
        p = self.policy
        cap = self.capacity_per_replica()
        if cap <= 0:
            return current
        if rate_rps > p.target_utilization * cap * current:
            import math

            want = math.ceil(rate_rps / (p.target_utilization * cap))
            return min(max(want, current + 1), p.max_replicas)
        if current > p.min_replicas and rate_rps < (
            p.shrink_margin * cap * (current - 1)
        ):
            return current - 1
        return current

    def step(
        self, now: float | None = None, max_replicas: int | None = None
    ) -> ScaleEvent | None:
        """Evaluate the policy once; scale the runtime if it says so.

        ``max_replicas`` lets the caller clamp further (e.g. to what
        the shared free-bank pool can actually host right now).
        Returns the executed :class:`ScaleEvent`, or ``None``.
        """
        now = self.clock() if now is None else now
        if now - self._last_action_s < self.policy.cooldown_s:
            return None
        current = self.runtime.replicas
        rate_rps = self.rate(now)
        want = self.desired(rate_rps, current)
        if max_replicas is not None:
            want = min(want, max(max_replicas, current))
        if want == current:
            return None
        if (
            want < current
            and now - self._last_restart_s < self.policy.cooldown_s
        ):
            # Restart hysteresis: the fleet is crash-recovering; hold
            # shrinks for a cooldown so freed banks are not re-granted
            # moments later.
            return None
        cost = self.runtime.scale_to(want)
        self._last_action_s = now
        event = ScaleEvent(
            t_s=now,
            tenant=self.runtime.name,
            from_replicas=current,
            to_replicas=want,
            bringup_s=cost,
            rate_rps=rate_rps,
        )
        self.events.append(event)
        return event
