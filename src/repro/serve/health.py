"""Replica health, crash recovery, and the deterministic chaos harness.

PRIME's serving story (§VI) assumes every bank group keeps computing;
a datacenter deployment cannot.  Replicas die, hang, or slow down,
and ReRAM conductances *drift* — the slow decay toward the HRS
state that FPSA-style reconfigurable remapping (arXiv 1901.09904) and
data-driven device modeling (arXiv 2211.15925) both treat as a
first-class failure mode.  This module is the policy layer the serving
runtime threads those failures through:

* :class:`HealthPolicy` — the knobs: per-batch deadline, bounded
  retries with exponential backoff, latency-outlier quarantine,
  restart budgets, and the drift-probe cadence/threshold.
* :class:`ReplicaHealthMonitor` — per-replica liveness bookkeeping:
  consecutive-failure counts, EMA latency baselines per batch-width
  bucket for outlier detection, quarantine/revive/retire state, and
  the routable set the dispatcher round-robins over.
* :class:`FaultPlan` / :class:`FaultEvent` — the seeded chaos harness:
  replica kills, hangs (sleep injection), slow replicas, and conductance
  drift scheduled at fixed micro-batch indices, so chaos tests are a
  deterministic function of the traffic and the plan (each event fires
  exactly once).
* :func:`apply_drift` — the seeded conductance-drift injector over a
  programmed layer chain, reusing :meth:`CellArray.apply_drift
  <repro.device.cell.CellArray.apply_drift>` and invalidating each
  programmed layer, which retires the compiled plan's count stacks, so
  drifted conductances actually reach the served outputs.

Determinism contract: a retried micro-batch re-dispatches the *same*
payload with the *same* per-batch noise seed
(:func:`repro.serve.dispatcher.batch_noise_seed`), and every replica
serves the one copy programmed from a
:class:`~repro.serve.dispatcher.WorkerSpec` — so the retried result is bit-identical to what the first attempt would have
returned, and the ``ServingRuntime.reference()`` oracle stays green
through crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "HealthPolicy",
    "ReplicaHealth",
    "ReplicaHealthMonitor",
    "FaultEvent",
    "FaultPlan",
    "RestartEvent",
    "ReprogramEvent",
    "WorkerCrash",
    "apply_drift",
]

#: Fault kinds a :class:`FaultEvent` can schedule.
FAULT_KINDS = ("kill", "hang", "slow", "drift")


class WorkerCrash(Exception):
    """A replica died mid-batch.

    Replicas are threads (or, in serial mode, the coordinator itself),
    which *cannot* be SIGKILLed, so a crash is this exception.  The
    :class:`~repro.serve.dispatcher.ThreadDispatcher` raises it for an
    injected ``kill``; a hung replica thread parks on its cancellation
    event so ``restart_replica`` — set the event, retire the pool,
    start a fresh thread — wakes it into this exception instead of
    orphaning it, and a batch served inline on the coordinator (serial
    mode) raises it for a ``hang`` at once.  The runtime's answer is
    the same in both modes: quarantine the replica, restart it,
    re-dispatch the batch; restart budgets and the degrade-to-serial
    last resort apply on top.
    """


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs of the serving fault-tolerance layer.

    The defaults are deliberately conservative: generous deadline, a
    few retries, probes off.  Fault-free serving under the default
    policy is bit-identical (results *and* telemetry) to serving
    without the layer — every mechanism here only acts when a batch
    times out, a replica crashes, or a probe trips.
    """

    #: Per-batch deadline in wall seconds; a batch unresolved past it
    #: counts as a hang: the replica is quarantined and restarted and
    #: the batch re-dispatched.  ``None`` disables deadlines (crash
    #: recovery still applies).
    batch_timeout_s: float | None = 60.0
    #: Re-dispatch attempts per micro-batch before giving up.
    max_retries: int = 3
    #: First retry backoff (wall seconds); each further attempt
    #: multiplies by :attr:`backoff_factor`.
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    #: Consecutive latency outliers before a replica is quarantined
    #: and restarted.
    suspect_limit: int = 3
    #: A batch whose worker-measured execution time exceeds this factor
    #: times the replica's EMA baseline *for batches of similar width*
    #: (the same power-of-two bucket, ``samples.bit_length()``) counts
    #: as a latency outlier; a bucket's first batch seeds its baseline.
    latency_outlier_factor: float = 10.0
    #: Restart budget per replica; past it the replica is retired for
    #: the runtime's lifetime (and the runtime degrades to serial
    #: dispatch when no replica is left).
    max_restarts_per_replica: int = 5
    #: Run the drift health probe every this many dispatched
    #: micro-batches (``None`` disables probing).  Probing needs a
    #: deploy-time calibration batch — its programmed outputs are the
    #: known-good reference the probe re-evaluates against.
    probe_interval_batches: int | None = None
    #: Relative output distance (L2, against the deploy-time
    #: calibration outputs) past which a probe schedules background
    #: reprogramming of the drifted replica.
    drift_threshold: float = 0.02
    #: What to do when a batch exhausts its retries: ``"raise"``
    #: propagates an ExecutionError to the pump caller (single-model
    #: serving), ``"shed"`` records the failure on every request of the
    #: batch (``request.error``) and keeps serving — the open-loop
    #: cluster accounts them as ``serve.shed{reason=failure}``.
    on_exhausted: str = "raise"

    def __post_init__(self) -> None:
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ConfigurationError("batch_timeout_s must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff_base_s must be >= 0 and backoff_factor >= 1"
            )
        if self.suspect_limit < 1:
            raise ConfigurationError("suspect_limit must be >= 1")
        if self.latency_outlier_factor <= 1.0:
            raise ConfigurationError(
                "latency_outlier_factor must be > 1"
            )
        if self.max_restarts_per_replica < 0:
            raise ConfigurationError(
                "max_restarts_per_replica must be >= 0"
            )
        if (
            self.probe_interval_batches is not None
            and self.probe_interval_batches < 1
        ):
            raise ConfigurationError(
                "probe_interval_batches must be >= 1"
            )
        if self.drift_threshold <= 0:
            raise ConfigurationError("drift_threshold must be > 0")
        if self.on_exhausted not in ("raise", "shed"):
            raise ConfigurationError(
                "on_exhausted must be 'raise' or 'shed'"
            )


@dataclass
class ReplicaHealth:
    """Mutable per-replica health record."""

    #: Routable: batches may be dispatched here.
    healthy: bool = True
    #: Permanently out of rotation (restart budget exhausted or the
    #: respawn itself failed).
    retired: bool = False
    #: Consecutive latency outliers since the last clean batch.
    suspect_count: int = 0
    #: Restarts consumed from the per-replica budget.
    restarts: int = 0
    #: Restart epoch, bumped by every quarantine: a failure restarts
    #: the replica only when the batch ran on its current incarnation.
    epoch: int = 0
    #: EMA of worker-measured execution seconds per batch-width bucket
    #: (``samples.bit_length()``: 1, 2-3, 4-7, ... samples), the
    #: outlier baselines; a bucket is absent until its first batch
    #: completes.
    ema_exec_s: dict[int, float] = field(default_factory=dict)


class ReplicaHealthMonitor:
    """Tracks liveness and latency health of every replica.

    Owned by the :class:`~repro.serve.runtime.ServingRuntime`; the
    dispatcher never sees it.  The runtime feeds it batch outcomes
    (:meth:`record_success` / :meth:`record_failure`) and routes fresh
    dispatches over :meth:`routable`.
    """

    #: EMA smoothing for the execution-time baseline.
    EMA_ALPHA = 0.2

    def __init__(self, replicas: int, policy: HealthPolicy) -> None:
        if replicas < 1:
            raise ConfigurationError("monitor needs >= 1 replica")
        self.policy = policy
        self.replicas: list[ReplicaHealth] = [
            ReplicaHealth() for _ in range(replicas)
        ]

    def __len__(self) -> int:
        return len(self.replicas)

    def routable(self) -> list[int]:
        """Replica indices fresh batches may be dispatched to."""
        return [
            i
            for i, r in enumerate(self.replicas)
            if r.healthy and not r.retired
        ]

    @property
    def all_unhealthy(self) -> bool:
        return not self.routable()

    # -- outcomes -------------------------------------------------------

    def record_success(
        self, replica: int, exec_s: float, samples: int
    ) -> bool:
        """Record a completed ``samples``-wide batch; True when the
        replica just crossed the consecutive-outlier limit and should be
        restarted.

        A batch is judged only against the replica's recent batches of
        similar width: execution time grows with width, so a burst's
        256-wide batches would otherwise count as outliers against a
        baseline of 1-sample batches.  The first batch of a width
        bucket seeds its baseline and is never an outlier.  A baseline
        only absorbs non-outlier observations, so one slow batch cannot
        drag it up and mask the next.
        """
        r = self.replicas[replica]
        p = self.policy
        bucket = samples.bit_length()
        ema = r.ema_exec_s.get(bucket)
        if ema is None:
            r.suspect_count = 0
            r.ema_exec_s[bucket] = exec_s
            return False
        if exec_s > p.latency_outlier_factor * ema:
            r.suspect_count += 1
            return r.suspect_count >= p.suspect_limit
        r.suspect_count = 0
        r.ema_exec_s[bucket] = ema + self.EMA_ALPHA * (exec_s - ema)
        return False

    def record_failure(self, replica: int, reason: str) -> None:
        """Record a crash/timeout/cancellation against ``replica``."""
        r = self.replicas[replica]
        r.suspect_count += 1

    # -- lifecycle ------------------------------------------------------

    def quarantine(self, replica: int) -> None:
        """Take ``replica`` out of rotation (pending restart) and end
        its incarnation."""
        r = self.replicas[replica]
        r.healthy = False
        r.epoch += 1

    def epoch(self, replica: int) -> int:
        """``replica``'s restart epoch; 0 for a replica the monitor
        no longer tracks."""
        if replica < len(self.replicas):
            return self.replicas[replica].epoch
        return 0

    def can_restart(self, replica: int) -> bool:
        r = self.replicas[replica]
        return (
            not r.retired
            and r.restarts < self.policy.max_restarts_per_replica
        )

    def revive(self, replica: int) -> None:
        """Put a freshly-restarted replica back in rotation."""
        r = self.replicas[replica]
        r.healthy = True
        r.retired = False
        r.suspect_count = 0
        r.restarts += 1
        r.ema_exec_s = {}

    def retire(self, replica: int) -> None:
        """Permanently remove ``replica`` from rotation."""
        r = self.replicas[replica]
        r.healthy = False
        r.retired = True

    def resize(self, replicas: int) -> None:
        """Track a live grant resize (autoscaler grow/shrink)."""
        if replicas < 1:
            raise ConfigurationError("monitor needs >= 1 replica")
        if replicas > len(self.replicas):
            self.replicas.extend(
                ReplicaHealth()
                for _ in range(replicas - len(self.replicas))
            )
        else:
            del self.replicas[replicas:]


# ----------------------------------------------------------------------
# chaos harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed by fresh micro-batch index.

    ``batch_index`` counts *fresh* dispatches (retries do not advance
    it), so under deterministic traffic an event always lands on the
    same micro-batch — and, with round-robin routing, the same replica.

    * ``kill``  — the replica dies before computing the batch: it
      raises :class:`WorkerCrash`.
    * ``hang``  — the replica thread sleeps ``duration_s`` before
      computing, tripping the coordinator's per-batch deadline; its
      restart's cancellation event wakes it (serial mode, whose
      batches run on the coordinator, models it as a crash).
    * ``slow``  — ``duration_s`` is folded into the batch's reported
      execution time *after* it computes: the batch succeeds bit-exact
      but registers as a latency outlier (no real sleep, so chaos runs
      stay fast and the outlier trigger is deterministic).
    * ``drift`` — seeded conductance drift of ``magnitude`` is applied
      to the programmed copy's arrays after the batch computes, so
      every later batch, on every replica, is silently degraded until
      the health probe catches it and schedules reprogramming.
    """

    batch_index: int
    kind: str
    duration_s: float = 0.0
    magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_index < 0:
            raise ConfigurationError("batch_index must be >= 0")
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got "
                f"{self.kind!r}"
            )
        if self.kind in ("hang", "slow") and self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.kind} faults need duration_s > 0"
            )
        if self.kind == "drift" and self.magnitude <= 0:
            raise ConfigurationError("drift faults need magnitude > 0")

    @property
    def payload(self) -> tuple:
        """The fault descriptor handed to the dispatcher with its batch."""
        if self.kind == "kill":
            return ("kill",)
        if self.kind in ("hang", "slow"):
            return (self.kind, self.duration_s)
        return ("drift", self.magnitude, self.seed)


class FaultPlan:
    """A deterministic schedule of fault injections.

    Each event fires exactly once, on the fresh micro-batch whose index
    it names; :attr:`remaining` is what has not fired yet (chaos tests
    assert it drains).  At most one event per batch index.
    """

    def __init__(self, events=()) -> None:
        self._events: dict[int, FaultEvent] = {}
        for event in events:
            if event.batch_index in self._events:
                raise ConfigurationError(
                    f"duplicate fault at batch {event.batch_index}"
                )
            self._events[event.batch_index] = event
        self.fired: list[FaultEvent] = []

    @classmethod
    def of(cls, *events: FaultEvent) -> "FaultPlan":
        return cls(events)

    @property
    def remaining(self) -> int:
        return len(self._events)

    def take(self, batch_index: int) -> FaultEvent | None:
        """Pop the event scheduled for ``batch_index``, if any."""
        event = self._events.pop(batch_index, None)
        if event is not None:
            self.fired.append(event)
        return event


# ----------------------------------------------------------------------
# recovery events (for reports and assertions)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RestartEvent:
    """One executed replica restart."""

    t_s: float
    replica: int
    #: ``crash`` | ``timeout`` | ``outlier`` | ``probe``
    reason: str
    #: Measured wall seconds: cooperative cancel plus a fresh replica
    #: thread (thread mode) or cancellation event (serial mode); no
    #: mode re-programs the copy.
    cost_s: float


@dataclass(frozen=True)
class ReprogramEvent:
    """One drift-triggered background reprogramming."""

    t_s: float
    replica: int
    #: Probe distance that tripped the threshold.
    drift: float
    #: Measured reprogramming wall seconds.
    cost_s: float


# ----------------------------------------------------------------------
# conductance drift injection
# ----------------------------------------------------------------------


def apply_drift(programmed, magnitude: float, seed: int) -> None:
    """Apply seeded conductance drift to a programmed layer chain.

    Each :class:`~repro.crossbar.layer.ProgrammedLayer` decays its
    cells' conductances toward HRS
    (:meth:`~repro.crossbar.layer.ProgrammedLayer.apply_drift`, one
    generator for the whole chain, layer by layer) and renews its
    token, which retires the compiled plan's count stacks, so the
    drifted conductances reach subsequent evaluations.  Deterministic
    in ``(magnitude, seed)``.
    """
    if magnitude <= 0:
        raise ConfigurationError("drift magnitude must be > 0")
    rng = np.random.default_rng(seed)
    for layer in programmed:
        layer.apply_drift(magnitude, rng)
