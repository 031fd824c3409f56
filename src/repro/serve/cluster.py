"""Pipelined multi-model serving over one shared bank pool.

PRIME's end state is a *datacenter* memory system: 64 ReRAM banks
hosting several resident NNs at once, each bank group an independent
NPU.  :class:`ServingCluster` operationalises that — several
:class:`~repro.serve.runtime.ServingRuntime` deployments run
concurrently over disjoint :class:`~repro.core.scheduler.BankScheduler`
grants, driven by *open-loop* arrival processes
(:mod:`repro.serve.arrivals`), guarded by per-tenant admission control,
and resized live by reactive autoscalers
(:mod:`repro.serve.autoscaler`).

The cluster loop is where the pipelining lives.  The single-model path
pumps synchronously: dispatch every ready batch, then **wait for all
of them** — so while the slowest replica finishes, every other replica
of every tenant idles and no new batch forms.  The pipelined loop
instead interleaves non-blocking :meth:`ServingRuntime.poll` calls
across tenants: each poll tops up dispatches to the dispatcher's
inflight depth and harvests only the *finished* prefix of the
in-flight queue.  Batch formation for tenant A overlaps execution
for tenant B (and for A's own other replicas), keeping every granted
bank busy.  ``pipelined=False`` degrades the same loop to the
synchronous pump — the benchmark baseline.  One exception to the
overlap: a thread-mode tenant runs micro-batches of at most two
samples inline (see :class:`~repro.serve.dispatcher.ThreadDispatcher`),
so such a batch holds the loop for one forward pass.

Determinism: arrivals are a pure function of each tenant's seed,
admission decisions depend only on queue state at the decision
instant, and results are bit-identical to
:meth:`ServingRuntime.reference` per tenant (noise off) regardless of
how batches interleaved.  Tests inject a fake clock + sleep to make
the whole loop a deterministic function of its inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.scheduler import BankScheduler
from repro.errors import ConfigurationError
from repro.nn.network import Sequential
from repro.nn.topology import NetworkTopology
from repro.params.prime import PrimeConfig, DEFAULT_PRIME_CONFIG
from repro.serve.arrivals import ArrivalProcess, TrafficShape
from repro.serve.autoscaler import (
    Autoscaler,
    AutoscalerPolicy,
    ScaleEvent,
)
from repro.serve.batcher import ServeRequest
from repro.serve.health import FaultPlan, HealthPolicy
from repro.serve.runtime import ServeConfig, ServingRuntime
from repro.telemetry.metrics import nearest_rank

__all__ = [
    "AdmissionPolicy",
    "TenantSpec",
    "TenantReport",
    "ClusterReport",
    "ServingCluster",
]

#: Seconds the cluster loop sleeps after an iteration that moved no
#: work, so an idle loop yields the GIL to the replica threads.
POLL_INTERVAL_S = 5e-5


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-tenant admission gate for open-loop traffic.

    Under open-loop load a saturated tenant's queue grows without
    bound; shedding early keeps the *admitted* requests' latency
    bounded and is counted per tenant so the saturation reports show
    goodput and shed rate side by side.

    * ``max_queue_depth`` — an arriving request finding this many
      requests already queued is rejected at the door
      (``serve.shed{reason=queue_depth}``);
    * ``deadline_s`` — a queued request older than this is dropped
      before batch formation (``serve.shed{reason=deadline}``); it
      could only waste a replica on an answer nobody is waiting for.
    """

    max_queue_depth: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ConfigurationError("max_queue_depth must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline_s must be > 0")


@dataclass
class TenantSpec:
    """One co-resident model plus the traffic aimed at it."""

    topology: NetworkTopology
    network: Sequential
    #: Samples the arrival process replays (cycled round-robin).
    samples: np.ndarray
    #: Open-loop base arrival rate.
    rate_rps: float = 100.0
    shape: TrafficShape | None = None
    #: Arrival-process seed (determinism knob).
    seed: int = 0
    #: Initial replica grant.
    replicas: int = 1
    serve_config: ServeConfig | None = None
    admission: AdmissionPolicy | None = None
    autoscaler: AutoscalerPolicy | None = None
    calibration: np.ndarray | None = None
    #: Fault-tolerance policy (``None`` = runtime defaults: crash
    #: recovery on, probes off).
    health: HealthPolicy | None = None
    #: Seeded chaos schedule for this tenant's runtime (tests only).
    fault_plan: FaultPlan | None = None


@dataclass(frozen=True)
class TenantReport:
    """One tenant's outcome of an open-loop cluster run."""

    tenant: str
    #: Arrival-process draws aimed at this tenant.
    offered: int
    #: Requests past the admission gate (submitted to the batcher).
    admitted: int
    shed_queue: int
    shed_deadline: int
    completed: int
    duration_s: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    replicas_final: int
    mode: str
    #: Fraction of replica-time the grant spent idle: 1 minus the
    #: worker-measured execute time over integrated replica-seconds.
    replica_idle_fraction: float
    #: Admitted requests whose micro-batch exhausted its dispatch
    #: retries (shed with ``request.error`` set — a recorded loss,
    #: never a silent one).
    shed_failed: int = 0
    #: Replica restarts executed during the run (crash recovery).
    replica_restarts: int = 0
    #: Drift-triggered background reprogrammings during the run.
    reprograms: int = 0
    scale_events: tuple[ScaleEvent, ...] = ()
    #: Completed requests, in admission order (for bit-identity
    #: checks against ``ServingRuntime.reference``).
    requests: tuple[ServeRequest, ...] = field(default=(), repr=False)

    @property
    def shed(self) -> int:
        return self.shed_queue + self.shed_deadline + self.shed_failed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completed (admitted *and* answered) requests per second."""
        return self.completed / self.duration_s if self.duration_s else 0.0

    def summary(self) -> str:
        scale = "".join(
            f" {e.direction}->{e.to_replicas}" for e in self.scale_events
        )
        faults = ""
        if self.replica_restarts or self.reprograms or self.shed_failed:
            faults = (
                f", {self.replica_restarts} restart(s) "
                f"{self.reprograms} reprogram(s) "
                f"{self.shed_failed} failed"
            )
        return (
            f"{self.tenant}: offered {self.offered}, goodput "
            f"{self.goodput_rps:,.0f} req/s, shed {self.shed_rate:.1%} "
            f"(queue {self.shed_queue}, deadline {self.shed_deadline}), "
            f"p99={self.p99_ms:.2f} ms p99.9={self.p999_ms:.2f} ms, "
            f"idle {self.replica_idle_fraction:.1%} over "
            f"{self.replicas_final} replica(s){scale}{faults}"
        )


@dataclass(frozen=True)
class ClusterReport:
    """Aggregate outcome of one open-loop cluster run."""

    tenants: tuple[TenantReport, ...]
    duration_s: float
    pipelined: bool

    @property
    def goodput_rps(self) -> float:
        return sum(t.goodput_rps for t in self.tenants)

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    def tenant(self, name: str) -> TenantReport:
        for t in self.tenants:
            if t.tenant == name:
                return t
        raise ConfigurationError(f"no tenant named {name!r}")

    def summary(self) -> str:
        mode = "pipelined" if self.pipelined else "synchronous"
        lines = [
            f"cluster [{mode}]: {self.completed} completed in "
            f"{self.duration_s:.3f} s, aggregate goodput "
            f"{self.goodput_rps:,.0f} req/s, {self.shed} shed"
        ]
        lines.extend("  " + t.summary() for t in self.tenants)
        return "\n".join(lines)


class _TenantState:
    """Mutable per-tenant bookkeeping of one run."""

    def __init__(
        self,
        spec: TenantSpec,
        runtime: ServingRuntime,
        autoscaler: Autoscaler | None,
    ) -> None:
        self.spec = spec
        self.runtime = runtime
        self.autoscaler = autoscaler
        self.arrivals = np.empty(0)
        self.cursor = 0
        self.sample_cursor = 0
        self.requests: list[ServeRequest] = []
        self.shed_queue = 0
        self.shed_deadline = 0
        self.completed = 0
        self.busy_ns_base = 0
        self.replica_seconds = 0.0
        #: Run-start baselines for the runtime's cumulative
        #: fault-recovery tallies (reports show per-run deltas).
        self.shed_failed_base = 0
        self.restarts_base = 0
        self.reprograms_base = 0
        #: Restart events already fed to the autoscaler.
        self.restarts_seen = 0

    def next_sample(self) -> np.ndarray:
        x = self.spec.samples[
            self.sample_cursor % len(self.spec.samples)
        ]
        self.sample_cursor += 1
        return x

    @property
    def draining(self) -> bool:
        """All arrivals handled; only queued/in-flight work remains."""
        return self.cursor >= len(self.arrivals)

    @property
    def done(self) -> bool:
        return (
            self.draining
            and len(self.runtime.batcher) == 0
            and self.runtime.inflight == 0
        )


class ServingCluster:
    """Runs several tenants' deployments over one shared bank pool."""

    def __init__(
        self,
        tenants: list[TenantSpec],
        config: PrimeConfig = DEFAULT_PRIME_CONFIG,
        pipelined: bool = True,
        clock=None,
        sleep=None,
    ) -> None:
        if not tenants:
            raise ConfigurationError("cluster needs at least one tenant")
        names = [t.topology.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")
        self.config = config
        self.pipelined = pipelined
        self.clock = clock or time.perf_counter
        self.sleep = sleep or time.sleep
        self.scheduler = BankScheduler(config)
        self._states: list[_TenantState] = []
        try:
            for spec in tenants:
                runtime = ServingRuntime(
                    spec.network,
                    spec.topology,
                    config=config,
                    serve_config=spec.serve_config,
                    scheduler=self.scheduler,
                    max_replicas=spec.replicas,
                    calibration=spec.calibration,
                    clock=clock,
                    health=spec.health,
                    fault_plan=spec.fault_plan,
                )
                autoscaler = (
                    Autoscaler(runtime, spec.autoscaler, clock=self.clock)
                    if spec.autoscaler is not None
                    else None
                )
                self._states.append(
                    _TenantState(spec, runtime, autoscaler)
                )
        except BaseException:
            self.close()
            raise
        self._closed = False

    # -- access ---------------------------------------------------------

    @property
    def runtimes(self) -> list[ServingRuntime]:
        return [s.runtime for s in self._states]

    def runtime(self, name: str) -> ServingRuntime:
        for state in self._states:
            if state.runtime.name == name:
                return state.runtime
        raise ConfigurationError(f"no tenant named {name!r}")

    # -- lifecycle ------------------------------------------------------

    def warmup(self) -> None:
        """Serve one untimed micro-batch per replica per tenant.

        Pays every worker's one-time programming + calibration outside
        the measured window, exactly like ``LoadGenerator.warmup``.
        """
        for state in self._states:
            runtime = state.runtime
            n = runtime.max_batch * max(runtime.replicas, 1)
            runtime.serve(
                np.stack([state.next_sample() for _ in range(n)])
            )

    def close(self) -> None:
        for state in self._states:
            try:
                state.runtime.close()
            except Exception:
                pass
        self._closed = True

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for state in self._states:
                state.runtime._inflight.clear()
                state.runtime.batcher._queue.clear()
        self.close()

    # -- the loop -------------------------------------------------------

    def run(self, n_requests: int) -> ClusterReport:
        """Drive ``n_requests`` open-loop arrivals *per tenant*.

        Returns when every admitted request has completed and every
        shed request is accounted for.
        """
        if n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        start = self.clock()
        for state in self._states:
            process = ArrivalProcess(
                state.spec.rate_rps,
                shape=state.spec.shape,
                seed=state.spec.seed,
            )
            state.arrivals = start + process.times(n_requests)
            state.cursor = 0
            state.requests = []
            state.shed_queue = 0
            state.shed_deadline = 0
            state.completed = 0
            state.busy_ns_base = state.runtime.busy_ns
            state.replica_seconds = 0.0
            state.shed_failed_base = state.runtime.shed_failed
            state.restarts_base = len(state.runtime.restarts)
            state.reprograms_base = len(state.runtime.reprograms)
            state.restarts_seen = len(state.runtime.restarts)
        mode = "pipelined" if self.pipelined else "synchronous"
        with telemetry.span(
            "serve.cluster",
            tenants=len(self._states),
            requests=n_requests,
            mode=mode,
        ):
            last = start
            while not all(s.done for s in self._states):
                progress = False
                now = self.clock()
                for state in self._states:
                    progress |= self._step_tenant(state, now)
                # Accrue replica-time *after* stepping so the wall
                # time spent inside a blocking synchronous pump lands
                # in this iteration's interval, not the next one's
                # (which never comes for the final iteration).
                tick = self.clock()
                for state in self._states:
                    state.replica_seconds += (
                        state.runtime.replicas * (tick - last)
                    )
                last = tick
                if not progress:
                    self.sleep(POLL_INTERVAL_S)
            end = self.clock()
        return self._report(end - start)

    def _step_tenant(self, state: _TenantState, now: float) -> bool:
        """One loop iteration for one tenant; True if work moved."""
        runtime = state.runtime
        admission = state.spec.admission or AdmissionPolicy()
        progress = False
        # 1. Admit every arrival due by now (or shed at the door).
        while (
            state.cursor < len(state.arrivals)
            and state.arrivals[state.cursor] <= now
        ):
            t_arrival = state.arrivals[state.cursor]
            state.cursor += 1
            progress = True
            if (
                admission.max_queue_depth is not None
                and runtime.batcher.queue_depth
                >= admission.max_queue_depth
            ):
                state.shed_queue += 1
                if telemetry.enabled():
                    telemetry.count(
                        "serve.shed",
                        reason="queue_depth",
                        tenant=runtime.tenant,
                    )
                continue
            state.requests.append(runtime.submit(state.next_sample()))
            if state.autoscaler is not None:
                state.autoscaler.observe(t_arrival)
        # 2. Drop queued requests that already blew their deadline.
        if admission.deadline_s is not None:
            dropped = runtime.batcher.drop_stale(
                admission.deadline_s, now=now
            )
            state.shed_deadline += len(dropped)
            progress |= bool(dropped)
        # 3. Move batches: non-blocking poll (pipelined) or the
        #    synchronous dispatch-then-wait pump (baseline).
        flush = state.draining
        if self.pipelined:
            done = runtime.poll(flush=flush)
        else:
            done = runtime.pump(flush=flush)
        state.completed += done
        progress |= done > 0
        # Feed executed restarts to the autoscaler: crash recovery
        # holds shrinks for a cooldown (Autoscaler.note_restart).
        if (
            state.autoscaler is not None
            and state.restarts_seen < len(runtime.restarts)
        ):
            state.restarts_seen = len(runtime.restarts)
            state.autoscaler.note_restart(now=now)
        # 4. Let the autoscaler react, clamped to what the shared
        #    free-bank pool can actually host right now.  Gate on
        #    outstanding work rather than future arrivals: a saturating
        #    burst can be fully admitted (hence "draining") in one
        #    iteration while a huge backlog still needs the grow.
        if state.autoscaler is not None and not state.done:
            footprint = len(
                runtime.deployment.replica_banks[0]
            )
            headroom = len(self.scheduler.free_banks) // footprint
            event = state.autoscaler.step(
                now=now,
                max_replicas=runtime.replicas + headroom,
            )
            progress |= event is not None
        return progress

    # -- reporting ------------------------------------------------------

    def _report(self, duration_s: float) -> ClusterReport:
        reports = []
        for state in self._states:
            runtime = state.runtime
            latencies = sorted(
                r.latency_s * 1e3 for r in state.requests if r.done
            )
            busy_s = (runtime.busy_ns - state.busy_ns_base) / 1e9
            idle = (
                max(0.0, 1.0 - busy_s / state.replica_seconds)
                if state.replica_seconds > 0
                else 0.0
            )
            events = tuple(
                state.autoscaler.events if state.autoscaler else ()
            )
            report = TenantReport(
                tenant=runtime.tenant,
                offered=len(state.arrivals),
                admitted=len(state.requests),
                shed_queue=state.shed_queue,
                shed_deadline=state.shed_deadline,
                completed=state.completed,
                duration_s=duration_s,
                p50_ms=nearest_rank(latencies, 50.0),
                p99_ms=nearest_rank(latencies, 99.0),
                p999_ms=nearest_rank(latencies, 99.9),
                mean_ms=(
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
                replicas_final=runtime.replicas,
                mode=runtime.mode,
                replica_idle_fraction=idle,
                shed_failed=(
                    runtime.shed_failed - state.shed_failed_base
                ),
                replica_restarts=(
                    len(runtime.restarts) - state.restarts_base
                ),
                reprograms=(
                    len(runtime.reprograms) - state.reprograms_base
                ),
                scale_events=events,
                requests=tuple(r for r in state.requests if r.done),
            )
            reports.append(report)
            if telemetry.enabled():
                telemetry.gauge(
                    "serve.goodput_rps",
                    report.goodput_rps,
                    tenant=report.tenant,
                )
                telemetry.gauge(
                    "serve.replica_idle",
                    report.replica_idle_fraction,
                    tenant=report.tenant,
                )
        return ClusterReport(
            tenants=tuple(reports),
            duration_s=duration_s,
            pipelined=self.pipelined,
        )
