"""The serving runtime: scheduler grant → batcher → replica dispatch.

:class:`ServingRuntime` is the paper's datacenter scenario (§VI, "the
same NN executed tens of thousands of times") made operational on top
of the existing stack:

1. ``deploy`` — a :class:`~repro.core.scheduler.BankScheduler` grant
   claims replica bank groups for the compiled plan;
2. ``program once`` — the deployment programs the network a single
   time and freezes calibration on a shared calibration batch; every
   replica thread serves that one copy;
3. ``serve`` — queued single-sample requests coalesce into
   micro-batches sized against the executor's streaming chunk model
   and round-robin across the replicas; the pipelined
   :meth:`~ServingRuntime.poll` ships the queue head at once to any
   idle replica instead (work-conserving release).

Bit-identity guarantee: with calibration frozen at deploy time, the
runtime's outputs equal a direct
:meth:`~repro.core.executor.PrimeExecutor.run_functional` call on the
same concatenated batch at the same seeds — noise off (sample-wise
exact fused path) for *any* micro-batch composition, and seeded noise
on for the same composition (each micro-batch's noise stream is keyed
by its batch index, see :meth:`reference`).
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.scheduler import BankScheduler, Deployment
from repro.errors import ExecutionError
from repro.nn.network import Sequential
from repro.nn.topology import NetworkTopology
from repro.params.prime import PrimeConfig, DEFAULT_PRIME_CONFIG
from repro.resilience.policy import ResiliencePolicy
from repro.serve.batcher import (
    DEFAULT_MAX_WAIT_S,
    MicroBatcher,
    ServeRequest,
)
from repro.serve.dispatcher import (
    SerialDispatcher,
    WorkerSpec,
    batch_noise_seed,
    make_dispatcher,
    program_state,
    run_programmed,
)
from repro.serve.health import (
    FaultPlan,
    HealthPolicy,
    ReplicaHealthMonitor,
    ReprogramEvent,
    RestartEvent,
    WorkerCrash,
)

__all__ = ["ServeConfig", "ServingRuntime"]

logger = logging.getLogger("repro.serve")


@dataclass
class _Inflight:
    """One dispatched micro-batch awaiting collection.

    Keeps everything a deterministic re-dispatch needs: the stacked
    payload and the per-batch noise seed (retries reuse both, so a
    retried result is bit-identical to what the first attempt would
    have produced), plus the replica/epoch the batch went to and the
    wall-clock dispatch time its deadline counts from.
    """

    future: object
    batch: list = field(repr=False)
    payload: np.ndarray = field(default=None, repr=False)
    noise_seed: int | None = None
    replica: int = 0
    #: Replica restart epoch at dispatch time — a failure only triggers
    #: a restart when the epoch still matches (the replica it ran on is
    #: the one that failed); later failures from the same incarnation
    #: just re-dispatch.
    epoch: int = 0
    attempts: int = 0
    #: ``time.monotonic()`` at the last (re)dispatch; the per-batch
    #: deadline counts from here.
    t_wall: float = 0.0
    #: Dispatcher generation at the last (re)dispatch.  A batch whose
    #: dispatcher has since been replaced (degrade to serial) is
    #: cancelled with its closed pool; that failure belongs to the old
    #: replicas, never to the replacement's.
    generation: int = 0


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving deployment."""

    #: Micro-batch size; ``None`` derives it from the executor's chunk
    #: model (``PRIME_FUNC_CHUNK_BYTES``) capped at ``max_batch_cap``.
    max_batch: int | None = None
    #: Upper bound on the derived micro-batch size — beyond a point a
    #: wider matmul stops paying and only adds queueing latency.
    max_batch_cap: int = 256
    #: Longest a partial batch waits for company while every replica
    #: is busy.  The pipelined ``poll`` ships the queue head at once
    #: whenever some replica has no batch executing; the synchronous
    #: ``pump`` applies the batcher's plain age rule.
    max_wait_s: float = DEFAULT_MAX_WAIT_S
    #: Dispatch mode: ``auto`` | ``thread`` | ``serial``.  ``auto``
    #: runs replica threads for two or more replicas and serial for
    #: one (see the dispatch-mode matrix in the README's Serving
    #: section).
    mode: str = "auto"
    #: Seed for programming and per-batch noise streams.
    seed: int = 0
    #: Sample read noise during serving (seeded-reproducible).
    with_noise: bool = False
    #: Tenant (model) label stamped on every request's trace context
    #: and on the ``serve.*`` metrics; defaults to the deployment name.
    tenant: str = ""
    #: Emulated device service time per micro-batch (wall seconds), or
    #: ``None`` for no pacing.  Floors each batch's execution wall time
    #: so replica occupancy reflects modeled device latency rather than
    #: the host's core count; results are unchanged.  See
    #: :attr:`~repro.serve.dispatcher.WorkerSpec.pace_batch_s`.
    pace_batch_s: float | None = None


class ServingRuntime:
    """Serves one deployed network at micro-batched throughput."""

    def __init__(
        self,
        network: Sequential,
        topology: NetworkTopology,
        config: PrimeConfig = DEFAULT_PRIME_CONFIG,
        serve_config: ServeConfig | None = None,
        scheduler: BankScheduler | None = None,
        max_replicas: int | None = None,
        calibration: np.ndarray | None = None,
        resilience: ResiliencePolicy | None = None,
        clock=None,
        health: HealthPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config
        self.serve_config = serve_config or ServeConfig()
        #: Fault-tolerance policy; the defaults give every deployment
        #: crash recovery and a generous per-batch deadline without
        #: changing fault-free behaviour.
        self.health = health or HealthPolicy()
        #: Chaos-harness schedule (tests/benchmarks only); ``None`` in
        #: production serving.
        self.fault_plan = fault_plan
        self.network = network
        self.scheduler = scheduler or BankScheduler(config)
        with telemetry.span("serve.deploy", workload=topology.name):
            self.deployment: Deployment = self.scheduler.deploy(
                topology, max_replicas=max_replicas
            )
            self.plan = self.deployment.plan
            max_batch = self.serve_config.max_batch
            if max_batch is None:
                chunk = self.scheduler.executor.max_chunk_samples(self.plan)
                max_batch = max(
                    1, min(self.serve_config.max_batch_cap, chunk)
                )
            #: Tenant label on every trace context and ``serve.*``
            #: metric this runtime records.
            self.tenant = (
                self.serve_config.tenant or self.deployment.name
            )
            batcher_kw = {} if clock is None else {"clock": clock}
            self.batcher = MicroBatcher(
                max_batch,
                self.serve_config.max_wait_s,
                tenant=self.tenant,
                **batcher_kw,
            )
            self.spec = WorkerSpec(
                network=network,
                plan=self.plan,
                config=config,
                seed=self.serve_config.seed,
                with_noise=self.serve_config.with_noise,
                resilience=resilience,
                calibration=calibration,
                pace_batch_s=self.serve_config.pace_batch_s,
                probe_reference=(
                    self.health.probe_interval_batches is not None
                    and calibration is not None
                ),
            )
            self.dispatcher = make_dispatcher(
                self.spec,
                replicas=self.deployment.replicas,
                mode=self.serve_config.mode,
            )
            self._record_resident_bytes()
        #: Micro-batches dispatched so far (also the per-batch noise
        #: stream index and the chaos harness's fault-event index) —
        #: retries never advance it, so retried batches keep their
        #: original noise seed.
        self.batches_dispatched = 0
        #: :class:`_Inflight` records awaiting collection, in dispatch
        #: order.
        self._inflight: list[_Inflight] = []
        self._drained = 0
        #: Per-replica health bookkeeping; fresh dispatches only route
        #: over its healthy set.
        self.monitor = ReplicaHealthMonitor(
            max(self.deployment.replicas, 1), self.health
        )
        #: Per-replica restart epochs (see :class:`_Inflight`).
        self._replica_epoch = [0] * max(self.deployment.replicas, 1)
        #: Bumped whenever the dispatcher is replaced (see
        #: :class:`_Inflight`).
        self._generation = 0
        #: Executed replica restarts, in order.
        self.restarts: list[RestartEvent] = []
        #: Executed drift-triggered reprogrammings, in order.
        self.reprograms: list[ReprogramEvent] = []
        #: Requests shed because their batch exhausted its retries
        #: (``on_exhausted="shed"`` accounting).
        self.shed_failed = 0
        #: Outstanding (replica, future, epoch) drift probes.
        self._pending_probes: list[tuple] = []
        #: Summed replica-measured execution wall time (ns) of every
        #: collected batch — the numerator of replica-utilisation /
        #: idle-fraction accounting in the cluster reports.
        self.busy_ns = 0
        self._closed = False

    # -- properties -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.deployment.name

    @property
    def replicas(self) -> int:
        return self.deployment.replicas

    @property
    def max_batch(self) -> int:
        return self.batcher.max_batch

    @property
    def mode(self) -> str:
        """Dispatch mode in effect (``serial`` after a degrade)."""
        return self.dispatcher.mode

    def _record_resident_bytes(self) -> None:
        """Refresh the per-tenant programmed-state footprint gauge.

        ``serve.replica.resident_bytes`` is the RAM the dispatcher's
        programmed copies occupy — thread mode reports ~one copy no
        matter the replica count, serial mode one per programmed state
        — sampled at deploy, after every scale event, and after a
        degrade, so the shared-copy memory win shows up in
        ``serving_report``.
        """
        if not telemetry.enabled():
            return
        resident = getattr(self.dispatcher, "resident_bytes", None)
        if resident is None:
            return
        telemetry.gauge(
            "serve.replica.resident_bytes",
            resident(),
            tenant=self.tenant,
        )

    # -- serving --------------------------------------------------------

    def submit(self, x: np.ndarray) -> ServeRequest:
        """Enqueue one sample for inference."""
        if self._closed:
            raise ExecutionError("serving runtime is closed")
        return self.batcher.submit(x)

    @property
    def inflight(self) -> int:
        """Dispatched micro-batches not yet collected."""
        return len(self._inflight)

    def pump(self, flush: bool = False) -> int:
        """Move work synchronously: ship ready batches, wait for all.

        Dispatches every micro-batch the batcher will release (all of
        them, including partials, when ``flush`` is set), then resolves
        every in-flight future onto its requests — the dispatch-then-
        wait loop the single-model serving path uses.  Returns the
        number of requests completed by this call.
        """
        while True:
            batch = self.batcher.next_batch(flush=flush)
            if batch is None:
                break
            self._dispatch(batch)
        completed = self._collect()
        self._check_probes(block=True)
        self._sample_gauges()
        return completed

    def poll(self, flush: bool = False) -> int:
        """Move work without waiting: the pipelined pump.

        Dispatches micro-batches only while the dispatcher has
        uncontended capacity (its inflight depth), then
        resolves the *finished* prefix of the in-flight queue — never
        blocking on a batch still executing.  Interleaving ``poll``
        across several runtimes keeps every deployment's replicas
        saturated while batches form: batch formation overlaps
        in-flight execution instead of serialising behind it.

        Release is work-conserving: while some replica has no batch
        executing, the queue head ships to it at once, however small —
        holding a lone request for company would only idle that
        replica.  ``max_wait_s`` bounds the wait of a partial batch
        only while every replica is busy.  Returns the number of
        requests completed by this call.
        """
        if self._closed:
            raise ExecutionError("serving runtime is closed")
        limit = self.dispatcher.inflight_limit
        while len(self.batcher) and (
            limit is None or len(self._inflight) < limit
        ):
            idle = self._idle_replica()
            batch = self.batcher.next_batch(
                flush=flush or idle is not None
            )
            if batch is None:
                break
            self._dispatch(batch, block=False, replica=idle)
        completed = self._drained
        self._drained = 0
        while self._inflight and self._inflight[0].future.done():
            completed += self._resolve(self._inflight.pop(0))
        # A hung batch never reports done(): once the head entry blows
        # its wall-clock deadline, force-resolve it — the timeout path
        # inside _resolve quarantines the replica and re-dispatches, so
        # a hang cannot wedge the cluster loop.
        timeout_s = self.health.batch_timeout_s
        if (
            self._inflight
            and timeout_s is not None
            and time.monotonic() - self._inflight[0].t_wall > timeout_s
        ):
            completed += self._resolve(self._inflight.pop(0))
        self._check_probes(block=False)
        self._sample_gauges()
        return completed

    def _sample_gauges(self) -> None:
        if telemetry.enabled():
            telemetry.gauge(
                "serve.inflight_batches",
                len(self._inflight),
                tenant=self.tenant,
            )
            telemetry.gauge(
                "serve.queue_depth",
                self.batcher.queue_depth,
                tenant=self.tenant,
            )

    def serve(self, samples: np.ndarray) -> np.ndarray:
        """Convenience loop: submit every sample, drain, stack outputs.

        Equivalent to a client enqueueing the whole array at once; the
        batcher still splits it into ``max_batch`` micro-batches.
        """
        requests = [self.submit(x) for x in samples]
        self.pump(flush=True)
        return np.stack([r.result for r in requests])

    def _idle_replica(self) -> int | None:
        """A routable replica with no batch executing, or ``None``.

        The round-robin choice wins when it is idle, so a lightly
        loaded runtime routes exactly as the plain round-robin does;
        otherwise the first idle replica after it.
        """
        healthy = self.monitor.routable()
        busy = {
            entry.replica
            for entry in self._inflight
            if entry.generation == self._generation
            and not entry.future.done()
        }
        for k in range(len(healthy)):
            replica = healthy[
                (self.batches_dispatched + k) % len(healthy)
            ]
            if replica not in busy:
                return replica
        return None

    def _dispatch(
        self,
        batch: list[ServeRequest],
        block: bool = True,
        replica: int | None = None,
    ) -> None:
        stacked = np.stack([r.x for r in batch])
        if stacked.dtype != np.float64:
            stacked = stacked.astype(np.float64)
        noise_seed = None
        if self.spec.with_noise:
            noise_seed = batch_noise_seed(
                self.serve_config.seed, self.batches_dispatched
            )
        # Route over the healthy set only.  With every replica healthy
        # this is exactly the historical round-robin (index modulo the
        # replica count), so fault-free routing — and therefore noise
        # seeding and telemetry — is unchanged.  ``poll`` passes the
        # idle replica it released the batch for.
        healthy = self.monitor.routable()
        if not healthy:
            self._degrade_to_serial()
            healthy = self.monitor.routable()
        if not healthy:
            raise ExecutionError(
                "no healthy replicas left to dispatch to"
            )
        if replica is None:
            replica = healthy[self.batches_dispatched % len(healthy)]
        fault = None
        if self.fault_plan is not None:
            event = self.fault_plan.take(self.batches_dispatched)
            if event is not None:
                fault = event.payload
        self.batches_dispatched += 1
        probe_every = self.health.probe_interval_batches
        if probe_every and self.batches_dispatched % probe_every == 0:
            self._schedule_probes()
        if telemetry.enabled():
            telemetry.count(
                "serve.dispatch.batches",
                mode=self.dispatcher.mode,
                tenant=self.tenant,
            )
            telemetry.count(
                "serve.replica_batches",
                replica=replica,
                tenant=self.tenant,
            )
            telemetry.observe(
                "serve.batch_occupancy",
                len(batch) / self.max_batch,
                tenant=self.tenant,
            )
        t_dispatch = self.batcher.clock()
        for request in batch:
            request.t_dispatched = t_dispatch
        limit = self.dispatcher.inflight_limit
        if block and limit is not None:
            # Backpressure: past the dispatcher's inflight depth,
            # resolve the oldest batch first — its replica has almost
            # certainly finished it by the time the queue is this deep.
            # (``poll`` never gets here: it stops dispatching at the
            # limit instead.)
            while len(self._inflight) >= limit:
                self._drained += self._resolve(self._inflight.pop(0))
        future = self.dispatcher.dispatch(
            stacked, noise_seed, replica=replica, fault=fault
        )
        self._inflight.append(
            _Inflight(
                future=future,
                batch=batch,
                payload=stacked,
                noise_seed=noise_seed,
                replica=replica,
                epoch=self._epoch_of(replica),
                t_wall=time.monotonic(),
                generation=self._generation,
            )
        )

    def _collect(self) -> int:
        completed = self._drained
        self._drained = 0
        while self._inflight:
            completed += self._resolve(self._inflight.pop(0))
        return completed

    def _epoch_of(self, replica: int) -> int:
        if replica < len(self._replica_epoch):
            return self._replica_epoch[replica]
        return 0

    def _resolve(self, entry: _Inflight) -> int:
        """Collect one micro-batch, recovering from faults.

        Waits out the entry's remaining deadline; on a timeout, a
        crashed replica, or a cancelled future the failed replica is
        quarantined and restarted (at most once per restart epoch) and
        the *same* payload re-dispatched with the *same* noise seed to
        a healthy replica — bounded retries with exponential backoff.
        A batch that exhausts its retries either raises or sheds its
        requests with a recorded reason, per
        :attr:`HealthPolicy.on_exhausted`; either way no admitted
        request is ever silently lost.
        """
        policy = self.health
        while True:
            timeout_s = policy.batch_timeout_s
            remaining = None
            if timeout_s is not None:
                remaining = max(
                    0.0, entry.t_wall + timeout_s - time.monotonic()
                )
            try:
                envelope = entry.future.result(remaining)
                break
            except (TimeoutError, _FuturesTimeout):
                reason = "timeout"
            except WorkerCrash:
                reason = "crash"
            except CancelledError:
                reason = "cancelled"
            if not self._recover(entry, reason):
                return self._fail_batch(entry, reason)
        current = entry.generation == self._generation
        restart_outlier = False
        if current and entry.replica < len(self.monitor.replicas):
            restart_outlier = self.monitor.record_success(
                entry.replica, envelope.execute_ns / 1e9, len(entry.batch)
            )
        self.busy_ns += envelope.execute_ns
        now = self.batcher.clock()
        completed = 0
        for request, row in zip(entry.batch, envelope.value):
            request.result = row
            request.t_done = now
            completed += 1
            if telemetry.enabled():
                self._record_request(request, envelope.execute_ns)
        if restart_outlier and self._epoch_of(entry.replica) == entry.epoch:
            # The batch itself succeeded, but the replica has now been
            # a latency outlier `suspect_limit` times in a row: restart
            # it proactively before it turns into a deadline miss.
            self._restart_replica(entry.replica, "outlier")
        return completed

    def _recover(self, entry: _Inflight, reason: str) -> bool:
        """Handle one failed attempt; True when a retry was dispatched.

        A batch stranded on a dispatcher that has since been replaced
        (its pools closed by the degrade to serial) is re-dispatched
        without a health verdict, a restart or a spent retry: the
        failure was the old dispatcher's, and charging it to the
        replacement's fresh replica would retire that replica too.
        """
        policy = self.health
        current = entry.generation == self._generation
        if current:
            if entry.replica < len(self.monitor.replicas):
                self.monitor.record_failure(entry.replica, reason)
            if self._epoch_of(entry.replica) == entry.epoch:
                # First failure against this replica incarnation: it
                # is genuinely bad (crashed or hung thread) — restart
                # it.  Later failures with a stale epoch came from the
                # already-replaced pool and only need their batch
                # re-dispatched.
                self._restart_replica(entry.replica, reason)
            if entry.attempts >= policy.max_retries:
                return False
        healthy = self.monitor.routable()
        if not healthy:
            self._degrade_to_serial()
            healthy = self.monitor.routable()
        if not healthy:
            return False
        if telemetry.enabled():
            telemetry.count(
                "serve.dispatch.retry",
                reason=reason,
                tenant=self.tenant,
            )
        if current:
            backoff = policy.backoff_base_s * (
                policy.backoff_factor**entry.attempts
            )
            if backoff > 0.0:
                time.sleep(backoff)
            entry.attempts += 1
        replica = (
            entry.replica
            if entry.replica in healthy
            else healthy[entry.attempts % len(healthy)]
        )
        # Same payload, same noise seed: the retried result is
        # bit-identical to what the first dispatch would have returned.
        entry.future = self.dispatcher.dispatch(
            entry.payload, entry.noise_seed, replica=replica
        )
        entry.replica = replica
        entry.epoch = self._epoch_of(replica)
        entry.generation = self._generation
        entry.t_wall = time.monotonic()
        return True

    def _fail_batch(self, entry: _Inflight, reason: str) -> int:
        """Give up on a micro-batch after its retries are exhausted."""
        attempts = entry.attempts + 1
        if self.health.on_exhausted == "shed":
            for request in entry.batch:
                request.error = reason
            self.shed_failed += len(entry.batch)
            if telemetry.enabled():
                telemetry.count(
                    "serve.shed",
                    len(entry.batch),
                    reason="failure",
                    tenant=self.tenant,
                )
            logger.warning(
                "shed %d request(s): micro-batch failed after %d "
                "attempt(s) (%s)",
                len(entry.batch),
                attempts,
                reason,
            )
            return 0
        raise ExecutionError(
            f"micro-batch failed after {attempts} attempt(s) ({reason})"
        )

    # -- replica lifecycle ----------------------------------------------

    def _restart_replica(self, replica: int, reason: str) -> bool:
        """Quarantine and restart one replica; True on success.

        Budget-exhausted or failed restarts retire the replica; when
        nothing routable is left, thread mode degrades to serial
        dispatch (:meth:`_degrade_to_serial`).
        """
        self.monitor.quarantine(replica)
        if replica < len(self._replica_epoch):
            self._replica_epoch[replica] += 1
        if not self.monitor.can_restart(replica):
            self._retire_replica(replica)
            return False
        try:
            with telemetry.span(
                "serve.replica.restart",
                tenant=self.tenant,
                replica=replica,
                reason=reason,
            ):
                cost = self.dispatcher.restart_replica(replica)
        except Exception as exc:
            logger.warning(
                "replica %d restart failed (%s: %s); retiring it",
                replica,
                type(exc).__name__,
                exc,
            )
            self._retire_replica(replica)
            return False
        self.monitor.revive(replica)
        self.restarts.append(
            RestartEvent(
                t_s=self.batcher.clock(),
                replica=replica,
                reason=reason,
                cost_s=cost,
            )
        )
        if telemetry.enabled():
            telemetry.count(
                "serve.replica.restarts",
                reason=reason,
                tenant=self.tenant,
            )
            telemetry.observe(
                "serve.replica.restart_ms",
                cost * 1e3,
                tenant=self.tenant,
            )
        return True

    def _retire_replica(self, replica: int) -> None:
        self.monitor.retire(replica)
        if telemetry.enabled():
            telemetry.count(
                "serve.replica.retired",
                tenant=self.tenant,
                replica=replica,
            )

    def _degrade_to_serial(self) -> None:
        """Last-resort fallback: every replica is unhealthy.

        Closes the thread dispatcher (threads cannot be SIGKILLed;
        closing sets every replica's cancellation event, so even a hung
        thread wakes and retires without taking a request with it) and
        serves from a fresh in-process serial state: degraded
        throughput, but the deployment keeps answering and no admitted
        request is silently lost.  Serial mode has nothing further to
        degrade to, so an all-retired serial monitor stays empty and
        the caller sheds or raises.

        The serial replica gets its own health record and a new
        dispatcher generation, so batches and drift probes still out on
        the closed thread pools are never charged to it (see
        :meth:`_recover`).
        """
        if self.dispatcher.mode != "thread":
            return
        logger.warning(
            "all %d replica(s) unhealthy; degrading to serial "
            "in-process dispatch",
            len(self.monitor.replicas),
        )
        if telemetry.enabled():
            telemetry.count(
                "serve.dispatch.fallback",
                reason="unhealthy",
                tenant=self.tenant,
            )
        self.dispatcher.close()
        self.dispatcher = SerialDispatcher(self.spec, 1)
        self._generation += 1
        self.monitor = ReplicaHealthMonitor(1, self.health)
        self._replica_epoch = [0]
        self._pending_probes = []
        self._record_resident_bytes()

    # -- drift probes ---------------------------------------------------

    def _schedule_probes(self) -> None:
        """Submit the calibration health probe to every routable
        replica (results are harvested by pump/poll)."""
        if not self.spec.probe_reference:
            return
        pending = {(r, e) for r, _, e in self._pending_probes}
        for replica in self.monitor.routable():
            epoch = self._epoch_of(replica)
            if (replica, epoch) in pending:
                continue
            self._pending_probes.append(
                (replica, self.dispatcher.probe_replica(replica), epoch)
            )

    def _check_probes(self, block: bool) -> None:
        """Harvest finished drift probes; schedule reprogramming past
        the threshold.  A probe that errors or outlives the batch
        deadline means the replica cannot answer a trivial control call
        — treat it like a crash."""
        if not self._pending_probes:
            return
        still: list[tuple] = []
        for replica, future, epoch in self._pending_probes:
            if self._epoch_of(replica) != epoch:
                continue  # replica restarted since; probe is moot
            if not block and not future.done():
                still.append((replica, future, epoch))
                continue
            try:
                drift = future.result(self.health.batch_timeout_s)
            except Exception:
                self._restart_replica(replica, "probe")
                continue
            if replica < len(self.monitor.replicas):
                self.monitor.replicas[replica].last_drift = drift
            if telemetry.enabled():
                telemetry.observe(
                    "serve.replica.drift", drift, tenant=self.tenant
                )
            if drift > self.health.drift_threshold:
                self._reprogram_replica(replica, drift)
        self._pending_probes = still

    def _reprogram_replica(self, replica: int, drift: float) -> None:
        """Background drift recovery: rewrite the replica's arrays from
        their stored levels (program-and-verify when the policy asks)."""
        try:
            with telemetry.span(
                "serve.replica.reprogram",
                tenant=self.tenant,
                replica=replica,
            ):
                cost = self.dispatcher.reprogram_replica(replica)
        except Exception:
            # The replica could not even reprogram — same recovery as
            # a failed probe: restart it.
            self._restart_replica(replica, "probe")
            return
        self.reprograms.append(
            ReprogramEvent(
                t_s=self.batcher.clock(),
                replica=replica,
                drift=drift,
                cost_s=cost,
            )
        )
        if telemetry.enabled():
            telemetry.count(
                "serve.replica.reprograms", tenant=self.tenant
            )
            telemetry.observe(
                "serve.replica.reprogram_ms",
                cost * 1e3,
                tenant=self.tenant,
            )

    def _record_request(
        self, request: ServeRequest, execute_ns: int
    ) -> None:
        """Record one completed request: latency, stages, trace spans.

        The three stages partition the measured latency exactly —
        ``batcher`` (enqueue → batch formed) and ``replica`` (the
        replica-measured execution wall time) are taken directly, and
        ``queue`` is the remainder (dispatch overhead, replica
        queueing, future resolution) — so per-stage means always sum to
        the end-to-end mean.
        """
        tenant = self.tenant
        latency_ms = request.latency_s * 1e3
        t_batched = (
            request.t_batched
            if request.t_batched is not None
            else request.t_enqueue
        )
        batcher_ms = (t_batched - request.t_enqueue) * 1e3
        replica_ms = execute_ns / 1e6
        queue_ms = max(0.0, latency_ms - batcher_ms - replica_ms)
        telemetry.observe("serve.latency_ms", latency_ms, tenant=tenant)
        telemetry.observe(
            "serve.stage_ms", batcher_ms, stage="batcher", tenant=tenant
        )
        telemetry.observe(
            "serve.stage_ms", queue_ms, stage="queue", tenant=tenant
        )
        telemetry.observe(
            "serve.stage_ms", replica_ms, stage="replica", tenant=tenant
        )
        session = telemetry.session()
        if session is None:
            return
        tracer = session.tracer
        start = tracer.to_session_ns(request.t_enqueue)
        end = tracer.to_session_ns(request.t_done)
        parent = tracer.add_span(
            "serve.request",
            start,
            end,
            attrs={"trace_id": request.trace_id, "tenant": tenant},
        )
        # Contiguous child timeline: batcher, residual queue, replica.
        cut_batched = start + int(batcher_ms * 1e6)
        cut_queue = min(end, cut_batched + int(queue_ms * 1e6))
        for name, s, e in (
            ("serve.request.batcher", start, cut_batched),
            ("serve.request.queue", cut_batched, cut_queue),
            ("serve.request.replica", cut_queue, end),
        ):
            tracer.add_span(
                name,
                s,
                e,
                attrs={"trace_id": request.trace_id},
                parent_index=parent.index,
                depth=1,
            )

    # -- autoscaling ----------------------------------------------------

    def scale_to(self, replicas: int) -> float:
        """Grow or shrink this deployment's replica grant, live.

        Grow claims more bank groups from the shared scheduler
        (:meth:`BankScheduler.grow`) and adds replicas for them — new
        threads over the shared copy in thread mode, freshly programmed
        states in serial mode.  The measured wall seconds are returned
        and recorded as the ``serve.scale`` span and the
        ``serve.scale.reprogram_ms`` histogram, so scale-up is never
        free in the reports.  Shrink drains every in-flight batch
        first, retires the newest replicas, and returns their banks.
        Returns 0.0 when ``replicas`` already matches.
        """
        if self._closed:
            raise ExecutionError("serving runtime is closed")
        if replicas < 1:
            raise ExecutionError("cannot scale below one replica")
        current = self.replicas
        if replicas == current:
            return 0.0
        direction = "grow" if replicas > current else "shrink"
        with telemetry.span(
            "serve.scale",
            tenant=self.tenant,
            direction=direction,
            from_replicas=current,
            to_replicas=replicas,
        ):
            if replicas > current:
                self.scheduler.grow(self.name, replicas - current)
                try:
                    cost = self.dispatcher.grow(replicas - current)
                except BaseException:
                    # Replicas failed to come up: hand the banks back so
                    # grant and replica count cannot diverge.
                    self.scheduler.shrink(
                        self.name, replicas - current
                    )
                    raise
            else:
                # A retiring replica may still hold in-flight batches:
                # resolve everything first.
                self._drained += self._collect()
                cost = self.dispatcher.shrink(current - replicas)
                self.scheduler.shrink(self.name, current - replicas)
            self.monitor.resize(replicas)
            if replicas > len(self._replica_epoch):
                self._replica_epoch.extend(
                    [0] * (replicas - len(self._replica_epoch))
                )
            else:
                del self._replica_epoch[replicas:]
            if telemetry.enabled():
                telemetry.count(
                    "serve.scale_events",
                    tenant=self.tenant,
                    direction=direction,
                )
                telemetry.observe(
                    "serve.scale.reprogram_ms",
                    cost * 1e3,
                    tenant=self.tenant,
                    direction=direction,
                )
            self._record_resident_bytes()
        return cost

    # -- cross-checks ---------------------------------------------------

    def analytical_throughput(self) -> float:
        """Steady-state samples/s of the grant per the paper's model
        (:meth:`BankScheduler.throughput` over the replica banks)."""
        return self.scheduler.throughput(self.name)

    def reference(
        self, x: np.ndarray, batch_index: int = 0
    ) -> np.ndarray:
        """Direct ``run_functional`` on ``x`` under this deployment's
        seeds — the bit-identity oracle.

        Programs a fresh copy from the same :class:`WorkerSpec` the
        deployment used (identical conductances, identical frozen
        calibration) and evaluates ``x`` as one batch, with the noise
        stream a micro-batch at ``batch_index`` would have used.  A
        serving run whose batcher coalesced the same samples into one
        micro-batch returns exactly these rows; with noise off the
        equality holds per-sample for every batching.
        """
        executor, programmed = program_state(self.spec)
        noise_seed = (
            batch_noise_seed(self.serve_config.seed, batch_index)
            if self.spec.with_noise
            else None
        )
        return run_programmed(
            self.spec,
            executor,
            programmed,
            np.asarray(x, dtype=np.float64),
            noise_seed,
        )

    # -- lifecycle ------------------------------------------------------

    def close(self, release_banks: bool = True) -> None:
        """Shut down replicas and (optionally) release the bank grant.

        Idempotent and exception-safe: a second close is a no-op, and
        the bank grant is released even when the dispatcher's teardown
        raises.
        """
        if self._closed:
            return
        if self._inflight or len(self.batcher):
            raise ExecutionError(
                "cannot close with queued or in-flight requests; "
                "pump(flush=True) first"
            )
        self._pending_probes = []
        self._closed = True
        try:
            self.dispatcher.close()
        finally:
            if (
                release_banks
                and self.name in self.scheduler.deployments
            ):
                self.scheduler.release(self.name)

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Error path: drop queued work so close() cannot raise over
            # the original exception.
            self._inflight.clear()
            self.batcher._queue.clear()
        self.close()
