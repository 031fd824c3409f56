"""Replica-parallel dispatch of micro-batches onto one programmed copy.

A :class:`~repro.core.scheduler.BankScheduler` grant gives a
deployment ``R`` replica bank groups.  PRIME's replicas serve one set
of *stationary* programmed weights, and the dispatcher turns the grant
into execution capacity the same way:

* **thread mode** — :class:`ThreadDispatcher`: ``R`` replica threads
  serve ONE :func:`program_state` copy.  Its compiled execution is
  read-only NumPy over frozen weight stacks (BLAS releases the GIL),
  so the threads evaluate concurrently; batches and results move as
  plain ndarray references.
* **serial mode** — :class:`SerialDispatcher`: one lazily programmed
  copy served inline on the coordinator.  Same numbers, no overlap.

``mode="auto"`` picks threads for two or more replicas and serial for
one (:func:`make_dispatcher`).  Both dispatchers record telemetry
straight into the live session, each replica's forward on its own
``replica:N`` trace track.

Every replica programs from one :class:`WorkerSpec` (same seed), so
results never depend on which replica a batch lands on.  With noise
enabled, every micro-batch draws from a per-batch seed keyed by batch
index via :func:`repro.perf.parallel.task_seed` — noisy serving is
reproducible and routing-independent too.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.executor import PrimeExecutor, ProgrammedLayer
from repro.core.mapping import MappingPlan
from repro.device.faults import env_fault_rates
from repro.errors import ConfigurationError
from repro.nn.network import Sequential
from repro.params.prime import PrimeConfig
from repro.perf.kernels import fused_enabled, scoped_noise_stream
from repro.perf.parallel import task_seed
from repro.resilience.policy import ResiliencePolicy
from repro.serve.health import WorkerCrash, apply_drift
from repro.telemetry.shipping import ResultEnvelope

__all__ = [
    "WorkerSpec",
    "batch_noise_seed",
    "program_state",
    "run_programmed",
    "run_programmed_shared",
    "reprogram_state",
    "spec_resident_bytes",
    "SerialDispatcher",
    "ThreadDispatcher",
    "make_dispatcher",
]

#: Micro-batches a thread replica may have in flight before the
#: runtime collects (:attr:`ThreadDispatcher.inflight_limit`): enough
#: queued behind the running batch that a replica never idles while
#: the coordinator forms the next one, few enough that a backlog
#: stays in the batcher, where it can still coalesce, rather than in
#: the replica queues.
_INFLIGHT_PER_REPLICA = 4
#: Widest micro-batch a :class:`ThreadDispatcher` runs on the
#: dispatching thread instead of a replica thread.  An inline batch
#: holds the pumping thread for its whole forward (MLP-L on a 2-CPU
#: host: ~4.3 ms at 1 sample, ~6.1 ms at 2, 7-9 ms at 3-4), while a
#: replica thread adds a GIL handoff with the poll loop to every
#: batch.  Light open-loop traffic forms batches of 1-2 samples (bench
#: serve-light averages ~1.1, serve-heavy's 200 req/s phase ~1.3);
#: wider ones form behind busy replicas, where the coordinator is
#: better kept free to feed the other replica.  Measured there: a
#: bound of 1 left serve-heavy's steady median at 8-10 ms against
#: ~6.2 ms at 2, and 4 read within noise of 2 (EXPERIMENTS.md).
_INLINE_MAX_SAMPLES = 2


#: Modelled programmed state per crossbar cell: the int16 MLC level
#: plus a float64 conductance.  An ideal array stores only the level on
#: the host and derives the conductance on first read (see
#: :mod:`repro.device.cell`); this constant counts the full state.
_CELL_STATE_BYTES = 10


def spec_resident_bytes(spec: WorkerSpec) -> int:
    """Modelled programmed-crossbar state of ONE copy of ``spec``'s
    network.

    Every mat pair of every mapped weight layer holds a differential
    array pair whose per-cell state is the stored MLC level plus the
    programmed conductance.  The ``serve.replica.resident_bytes`` gauge
    reports this modelled state, not measured host RAM: an ideal
    network (noise-free, no variation or faults) holds 2 B per cell on
    the host, because its conductances are derived only when read.
    What the gauge shows is how the dispatch modes multiply it: thread
    mode shares one copy across all replica threads, serial mode holds
    one for its initial replicas plus one per grown replica.
    """
    xbar = spec.config.crossbar
    per_pair = 2 * xbar.rows * xbar.cols * _CELL_STATE_BYTES
    return sum(m.pairs * per_pair for m in spec.plan.weight_layers)


@dataclass
class WorkerSpec:
    """Everything a dispatcher needs to program and serve a replica.

    Every replica (and the ``ServingRuntime.reference`` oracle)
    programs from one spec, so they all hold bit-identical state.
    """

    network: Sequential
    plan: MappingPlan
    config: PrimeConfig
    seed: int
    with_noise: bool = False
    resilience: ResiliencePolicy | None = None
    calibration: np.ndarray | None = field(default=None, repr=False)
    #: Emulated device service time per micro-batch (wall seconds), or
    #: ``None`` for no pacing.  On PIM hardware the banks compute while
    #: the host coordinates; the functional simulation conflates both
    #: into host CPU, which makes replica *occupancy* (everything the
    #: cluster loop schedules around: pipelining overlap, autoscaling,
    #: saturation) an artifact of the host's core count and BLAS
    #: threading.  Pacing floors each batch's execution wall time at a
    #: fixed device service time, so scheduling behaviour is
    #: machine-independent and genuinely overlappable.  Results are
    #: unchanged — pacing only ever sleeps after the values are
    #: computed.
    pace_batch_s: float | None = None
    #: Capture the calibration batch's noise-free outputs at program
    #: time as the drift-probe reference.  Set by the runtime when the
    #: health policy enables periodic probing; off by default so the
    #: fault-free path does no extra work.
    probe_reference: bool = False

    @property
    def use_rng(self) -> bool:
        """Whether programming/serving needs a generator at all.

        Ideal noise-free serving programs with ``rng=None`` so the
        arrays stay pristine and the exact fused fast path applies —
        the same regime a direct noise-free ``run_functional`` runs in.
        """
        policy = (
            self.resilience
            if self.resilience is not None
            else self.config.resilience
        )
        xbar = self.config.crossbar
        fault_rates = (xbar.fault_rate_hrs, xbar.fault_rate_lrs)
        if fault_rates == (0.0, 0.0):
            fault_rates = env_fault_rates()
        return (
            self.with_noise
            or policy.verify_writes
            or fault_rates != (0.0, 0.0)
        )


def batch_noise_seed(seed: int, batch_index: int) -> int:
    """The deterministic noise seed of micro-batch ``batch_index``."""
    return task_seed(seed, "serve.batch", batch_index)


def program_state(
    spec: WorkerSpec,
) -> tuple[PrimeExecutor, list[ProgrammedLayer]]:
    """Program one copy from ``spec`` (the once-per-deployment step).

    Returns the executor and its cached programmed state.  When the
    spec carries a calibration batch, the per-layer input formats and
    SA output windows freeze here — every later micro-batch reuses
    them, so results do not depend on how traffic happened to be
    batched.  The calibration pass never samples read noise, keeping
    the post-programming RNG state independent of it.
    """
    executor = PrimeExecutor(spec.config)
    rng = (
        np.random.default_rng(spec.seed) if spec.use_rng else None
    )
    programmed = executor.program_network(
        spec.network, spec.plan, rng=rng, resilience=spec.resilience
    )
    if spec.calibration is not None:
        executor.run_functional(
            spec.network,
            spec.plan,
            spec.calibration,
            programmed=programmed,
            with_noise=False,
        )
    if telemetry.enabled():
        telemetry.count("serve.programs")
    return executor, programmed


def capture_reference(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
) -> np.ndarray | None:
    """The calibration batch's noise-free outputs (the drift-probe
    reference), or ``None`` when the spec carries no calibration or
    probing is off.  Noise-free evaluation samples nothing, so the
    capture never perturbs the programmed RNG state."""
    if not spec.probe_reference or spec.calibration is None:
        return None
    return executor.run_functional(
        spec.network,
        spec.plan,
        spec.calibration,
        programmed=programmed,
        with_noise=False,
    )


def drift_distance(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    reference: np.ndarray | None,
) -> float:
    """Relative L2 distance of the calibration outputs from the
    program-time reference — the health probe's drift metric."""
    if reference is None or spec.calibration is None:
        return 0.0
    out = executor.run_functional(
        spec.network,
        spec.plan,
        spec.calibration,
        programmed=programmed,
        with_noise=False,
    )
    denom = float(np.linalg.norm(reference)) or 1.0
    return float(np.linalg.norm(out - reference)) / denom


def reprogram_state(
    spec: WorkerSpec, programmed: list[ProgrammedLayer]
) -> None:
    """Re-program every engine array to its stored MLC levels.

    The drift-recovery step: retention drift decays conductances but
    never the programmed *levels*, so rewriting each
    :class:`~repro.device.cell.CellArray` from its own levels (through
    the spec's program-and-verify policy when one is active) restores
    the deploy-time state — exactly, in the noise-free regime.  The
    fused-kernel caches are invalidated afterwards so the recovered
    conductances reach subsequent evaluations.
    """
    policy = (
        spec.resilience
        if spec.resilience is not None
        else spec.config.resilience
    )
    verify = policy if policy.verify_writes else None
    for layer in programmed:
        for row in layer.tiles:
            for engine in row:
                for array in (
                    engine.pair.positive,
                    engine.pair.negative,
                ):
                    array.cells.program_levels(
                        array.cells.levels, verify=verify
                    )
        layer.kernel.invalidate()


def run_programmed(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Serve one micro-batch from already-programmed state."""
    start = time.perf_counter() if spec.pace_batch_s else 0.0
    if spec.with_noise and noise_seed is not None:
        programmed[0].kernel.reseed_noise(noise_seed)
    result = executor.run_functional(
        spec.network,
        spec.plan,
        batch,
        programmed=programmed,
        with_noise=spec.with_noise,
    )
    if spec.pace_batch_s:
        # Hold the batch until the emulated device service time has
        # elapsed; see WorkerSpec.pace_batch_s.
        remaining = spec.pace_batch_s - (time.perf_counter() - start)
        if remaining > 0.0:
            time.sleep(remaining)
    return result


def run_programmed_shared(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Serve one micro-batch from *shared* programmed state, mutation-free.

    The thread-replica twin of :func:`run_programmed`: instead of
    rewinding the engines' shared noise generator in place (a data race
    when several threads serve off one programmed copy), the noisy path
    routes this thread's draws through a private stream seeded
    identically (:meth:`~repro.perf.kernels.FusedLayerKernel.noise_stream`
    under :func:`~repro.perf.kernels.scoped_noise_stream`) — results
    are bit-identical to the reseed path, batch by batch, and nothing
    shared is written.
    """
    start = time.perf_counter() if spec.pace_batch_s else 0.0
    if spec.with_noise and noise_seed is not None:
        stream = programmed[0].kernel.noise_stream(noise_seed)
        ctx = scoped_noise_stream(stream)
    else:
        ctx = contextlib.nullcontext()
    with ctx:
        result = executor.run_functional(
            spec.network,
            spec.plan,
            batch,
            programmed=programmed,
            with_noise=spec.with_noise,
        )
    if spec.pace_batch_s:
        remaining = spec.pace_batch_s - (time.perf_counter() - start)
        if remaining > 0.0:
            time.sleep(remaining)
    return result


def _replica_track(replica: int):
    """Label the spans this thread records with ``replica:N``.

    Wraps a replica's forward in both dispatchers (inline batches
    included), so the Chrome trace keeps one track per replica.
    """
    session = telemetry.session()
    if session is None:
        return contextlib.nullcontext()
    return session.tracer.on_track(f"replica:{replica}")


class SerialDispatcher:
    """In-process dispatch: programmed copies served inline.

    ``dispatch`` runs the batch on the calling thread and returns an
    already-resolved :class:`Future` holding a
    :class:`~repro.telemetry.shipping.ResultEnvelope`, so the runtime
    drives both dispatchers identically.

    The initial replicas share a single lazily-programmed state (they
    are bit-identical by construction, and serial mode has no real
    parallelism to exploit); :meth:`grow` programs a fresh state per
    added replica so the autoscaler's scale-up cost stays explicit and
    measured even in serial mode.
    """

    mode = "serial"

    #: Serial dispatch resolves each future inline, so there is never
    #: more than one batch in flight and no limit to enforce.
    inflight_limit: int | None = None

    def __init__(self, spec: WorkerSpec, replicas: int = 1) -> None:
        self.spec = spec
        self.replicas = replicas
        #: Programmed states (executor, programmed, cal_ref), indexed
        #: by replica; replicas beyond the list share the first
        #: (initial-deploy) state.
        self._states: list[tuple] = []

    def _program(self) -> tuple:
        executor, programmed = program_state(self.spec)
        return (
            executor,
            programmed,
            capture_reference(self.spec, executor, programmed),
        )

    def _ensure(self, replica: int = 0):
        if not self._states:
            self._states.append(self._program())
        return self._states[min(replica, len(self._states) - 1)]

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        replica = 0 if replica is None else replica % max(self.replicas, 1)
        executor, programmed, _ = self._ensure(replica)
        future: Future = Future()
        if fault is not None and fault[0] in ("kill", "hang"):
            # Serial mode cannot lose or stall a replica — it *is* the
            # coordinator — so both present as a crash.
            future.set_exception(
                WorkerCrash(f"injected {fault[0]} fault")
            )
            return future
        start = time.perf_counter_ns()
        with _replica_track(replica):
            result = run_programmed(
                self.spec, executor, programmed, batch, noise_seed
            )
        envelope = ResultEnvelope(
            value=result,
            worker=replica,
            execute_ns=time.perf_counter_ns() - start,
        )
        if fault is not None:
            if fault[0] == "slow":
                envelope.execute_ns += int(fault[1] * 1e9)
            elif fault[0] == "drift":
                apply_drift(programmed, fault[1], fault[2])
        future.set_result(envelope)
        return future

    def restart_replica(self, replica: int) -> float:
        """Re-program a replica's state in place after an injected
        crash; returns the measured programming wall seconds."""
        self._ensure()
        idx = min(replica % max(self.replicas, 1), len(self._states) - 1)
        start = time.perf_counter()
        self._states[idx] = self._program()
        return time.perf_counter() - start

    def probe_replica(self, replica: int) -> Future:
        """Resolved future holding the replica's drift distance."""
        executor, programmed, cal_ref = self._ensure(
            replica % max(self.replicas, 1)
        )
        future: Future = Future()
        future.set_result(
            drift_distance(self.spec, executor, programmed, cal_ref)
        )
        return future

    def reprogram_replica(self, replica: int) -> float:
        """Re-program a drifted replica's arrays from their stored
        levels; returns the measured wall seconds."""
        _, programmed, _ = self._ensure(replica % max(self.replicas, 1))
        start = time.perf_counter()
        reprogram_state(self.spec, programmed)
        return time.perf_counter() - start

    def grow(self, replicas: int = 1) -> float:
        """Add replicas, programming one fresh state each; returns the
        measured one-time programming wall seconds."""
        self._ensure()
        start = time.perf_counter()
        for _ in range(replicas):
            self._states.append(self._program())
        self.replicas += replicas
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Drop replicas (and their grown states); returns 0.0 — serial
        teardown is free."""
        if replicas >= self.replicas:
            raise ConfigurationError(
                "cannot shrink below one replica"
            )
        for _ in range(replicas):
            if len(self._states) > 1:
                self._states.pop()
        self.replicas -= replicas
        return 0.0

    def resident_bytes(self) -> int:
        """Programmed-state RAM this dispatcher holds: one copy for the
        shared initial replicas plus one per grown state."""
        return spec_resident_bytes(self.spec) * max(1, len(self._states))

    def close(self) -> None:
        self._states = []


class _StateLock:
    """Reader-writer lock over one shared programmed state.

    Micro-batches are pure reads of the frozen weight/conductance
    stacks and take the read side concurrently; state mutations (drift
    injection, background reprogramming, first-batch calibration, and
    the serialised fallback execution path) take the exclusive write
    side.  Writers are preferred — a pending writer blocks new readers
    — so reprogramming cannot starve behind a steady batch stream.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ThreadDispatcher:
    """N replica threads serving ONE shared programmed copy per tenant.

    PRIME's replicas share *stationary* programmed weights, and thread
    replicas do too: they run against a single :func:`program_state`
    copy.  Fused/compiled execution is pure read-only NumPy matmuls
    over frozen conductance stacks (and NumPy releases the GIL inside
    them), so per-replica single-thread pools evaluate concurrently
    while

    * concurrent exact forwards split OpenBLAS's threads between them
      instead of oversubscribing the cores (:mod:`repro.perf.blas`);
    * batch payloads and results move as plain ndarray references;
    * scale-up allocates only per-thread scratch workspaces
      (:meth:`~repro.perf.plan.CompiledPlan.prewarm` — microseconds,
      no programming pass);
    * N replicas cost one weight-copy of RAM instead of N
      (:meth:`resident_bytes`).

    Tiny micro-batches (at most :data:`_INLINE_MAX_SAMPLES` samples)
    run inline on the dispatching thread, through the same task (read
    lock, cancellation check, measured ``execute_ns``, envelope), and
    come back as an already-completed future: at batch 1 a replica
    thread only adds a GIL handoff with the coordinator's poll loop
    to a forward the coordinator could run itself.  Batches that
    carry a fault, paced batches, the first batch of an uncalibrated
    copy and every serialised batch keep the replica threads.  In a
    :class:`~repro.serve.cluster.ServingCluster` an inline batch holds
    the cluster loop for one forward pass.

    Noise-on batches draw from private per-task streams
    (:func:`run_programmed_shared`), so results stay
    routing-independent and bit-identical to
    ``ServingRuntime.reference`` in both regimes.  Workloads whose
    kernels cannot take the re-entrant fused path (remapped tiles,
    on-lattice faulted arrays with noise off, per-engine noise
    fallbacks) serialise every batch under the state write lock —
    correct, just without parallel speedup.

    Fault model: threads cannot be SIGKILLed.  An injected ``kill``
    surfaces as :class:`WorkerCrash`; a ``hang`` really sleeps but
    wakes early when its replica's cancellation event fires —
    :meth:`restart_replica` is cooperative cancellation plus a fresh
    pool (cost: microseconds), and the runtime's existing
    quarantine/retire/degrade-to-serial machinery does the rest.
    ``drift`` mutates the *shared* copy (all replicas see it — one
    copy is the point), and :meth:`reprogram_replica` heals all
    replicas at once for the same reason.
    """

    mode = "thread"

    def __init__(self, spec: WorkerSpec, replicas: int = 1) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.spec = spec
        # One programmed copy, made on the coordinator thread; its
        # programming and calibration record into the live session.
        executor, programmed = program_state(spec)
        self._state: tuple | None = (
            executor,
            programmed,
            capture_reference(spec, executor, programmed),
        )
        self._lock = _StateLock()
        self._calibrated = spec.calibration is not None
        self._parallel = self._probe_parallel(programmed)
        if not self._parallel and telemetry.enabled():
            telemetry.count("serve.dispatch.thread_serialized")
        self._pools: list[ThreadPoolExecutor] = []
        self._cancels: list[threading.Event] = []
        self._rr = 0
        for _ in range(replicas):
            self._add_replica()
        self._prewarm_workspaces()

    def _probe_parallel(self, programmed) -> bool:
        """Whether concurrent execution over the shared copy is safe.

        Exactly the regimes whose hot paths are re-entrant: the fused
        noise-free path (ideal arrays or arrays programmed with
        variation) and the fused noisy path (under per-task private
        noise streams).  Anything that would fall to the per-engine
        tile walk — remapped tiles, on-lattice faulted arrays of a
        noise-free device, split RNGs, ``PRIME_FUSED=0`` — serialises
        under the write lock instead.
        """
        if not fused_enabled():
            return False
        kernels = [entry.kernel for entry in programmed]
        return all(
            k.can_fuse(with_noise=self.spec.with_noise) for k in kernels
        )

    def _add_replica(self) -> None:
        # The pool first: a replica whose thread pool cannot be made
        # leaves no cancellation event behind.
        pool = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"serve-replica-{len(self._pools)}",
        )
        self._cancels.append(threading.Event())
        self._pools.append(pool)

    def _prewarm_workspaces(self) -> None:
        """Pre-lease one plan workspace per replica thread.

        The entire scale-up cost of a thread replica: when the shared
        copy already carries a compiled plan (a calibration batch at
        program time compiles it), the new thread's scratch buffers
        are allocated here instead of on its first batch.
        """
        state = self._state
        if state is None:
            return
        plan = getattr(state[1][0], "compiled_plan", None)
        if plan is not None:
            plan.prewarm(len(self._pools))

    @property
    def replicas(self) -> int:
        return len(self._pools)

    @property
    def inflight_limit(self) -> int | None:
        """Batches the runtime may leave uncollected: a few per
        replica (:data:`_INFLIGHT_PER_REPLICA`) keeps every thread
        busy without unbounded queue growth."""
        return _INFLIGHT_PER_REPLICA * max(1, len(self._pools))

    def resident_bytes(self) -> int:
        """One programmed copy, however many replica threads serve it."""
        return spec_resident_bytes(self.spec)

    def _task(
        self,
        batch: np.ndarray,
        noise_seed: int | None,
        fault: tuple | None,
        cancel: threading.Event,
        replica: int,
    ) -> ResultEnvelope:
        if cancel.is_set():
            raise WorkerCrash("replica thread retired")
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        spec = self.spec
        executor, programmed, _ = state
        if fault is not None:
            if fault[0] == "kill":
                # Threads cannot be SIGKILLed; the injected crash
                # surfaces as an exception the runtime's crash
                # recovery handles like a dead worker.
                raise WorkerCrash("injected kill fault")
            if fault[0] == "hang":
                # A real stall — but cooperative: the replica's
                # cancellation event (set by restart_replica) wakes it
                # early, so a hung thread never outlives its recovery.
                if cancel.wait(fault[1]):
                    raise WorkerCrash("hung task cancelled cooperatively")
        start = time.perf_counter_ns()
        with _replica_track(replica):
            if self._parallel and self._calibrated:
                with self._lock.read():
                    result = run_programmed_shared(
                        spec, executor, programmed, batch, noise_seed
                    )
            else:
                # Exclusive: either the first batch still has
                # calibration to freeze (a state mutation), or this
                # workload's kernels cannot take the re-entrant path.
                with self._lock.write():
                    if self._parallel:
                        result = run_programmed_shared(
                            spec, executor, programmed, batch, noise_seed
                        )
                    else:
                        result = run_programmed(
                            spec, executor, programmed, batch, noise_seed
                        )
                    self._calibrated = True
        execute_ns = time.perf_counter_ns() - start
        if fault is not None:
            if fault[0] == "slow":
                execute_ns += int(fault[1] * 1e9)
            elif fault[0] == "drift":
                with self._lock.write():
                    apply_drift(programmed, fault[1], fault[2])
        return ResultEnvelope(
            value=result, worker=replica, execute_ns=execute_ns
        )

    def _runs_inline(self, batch: np.ndarray, fault: tuple | None) -> bool:
        """Whether ``batch`` runs on the dispatching thread.

        Only a tiny batch on the concurrent read path: a fault must
        occupy a replica thread (a hang would stall the coordinator),
        so must pacing (it models a busy device, not a busy host), and
        a first uncalibrated or serialised batch needs the write lock.
        """
        return (
            len(batch) <= _INLINE_MAX_SAMPLES
            and fault is None
            and not self.spec.pace_batch_s
            and self._calibrated
            and self._parallel
        )

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        if replica is None:
            replica = self._rr
            self._rr = (self._rr + 1) % len(self._pools)
        else:
            replica %= len(self._pools)
        if self._runs_inline(batch, fault):
            future: Future = Future()
            try:
                future.set_result(
                    self._task(
                        batch,
                        noise_seed,
                        None,
                        self._cancels[replica],
                        replica,
                    )
                )
            except Exception as exc:
                # Delivered where a replica thread's failure would be:
                # the runtime reads every future in ``_resolve``.
                future.set_exception(exc)
            return future
        return self._pools[replica].submit(
            self._task,
            batch,
            noise_seed,
            fault,
            self._cancels[replica],
            replica,
        )

    def restart_replica(self, replica: int) -> float:
        """Cooperatively cancel and replace one replica thread.

        Sets the replica's cancellation event (waking a hung task),
        retires its pool without waiting, and installs a fresh
        single-thread pool with warm workspaces.  The shared
        programmed state needs no re-programming — the thread was the
        problem, not the copy — so the measured cost is buffer
        allocation, microseconds.
        """
        replica %= len(self._pools)
        start = time.perf_counter()
        self._cancels[replica].set()
        self._pools[replica].shutdown(wait=False, cancel_futures=True)
        self._cancels[replica] = threading.Event()
        self._pools[replica] = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=f"serve-replica-{replica}",
        )
        self._prewarm_workspaces()
        return time.perf_counter() - start

    def _probe_task(self) -> float:
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        executor, programmed, cal_ref = state
        lock = self._lock.read() if self._parallel else self._lock.write()
        with lock:
            return drift_distance(self.spec, executor, programmed, cal_ref)

    def probe_replica(self, replica: int) -> Future:
        """Submit the drift health probe to one replica's thread."""
        return self._pools[replica % len(self._pools)].submit(
            self._probe_task
        )

    def reprogram_replica(self, replica: int) -> float:
        """Re-program the shared copy from its stored levels.

        Taken under the exclusive write lock (in-flight batches finish
        first, queued ones wait), and because every replica serves the
        same copy, one reprogramming heals them all.  Returns the
        measured wall seconds.
        """
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        start = time.perf_counter()
        with self._lock.write():
            reprogram_state(self.spec, state[1])
        return time.perf_counter() - start

    def grow(self, replicas: int = 1) -> float:
        """Add replica threads; returns the measured wall seconds.

        No programming, no fork: a new single-thread pool plus
        prewarmed scratch workspaces — the microsecond-scale scale-up
        the autoscaler's measured-cost EMA then reflects.
        """
        if replicas < 1:
            raise ConfigurationError("grow needs replicas >= 1")
        start = time.perf_counter()
        for _ in range(replicas):
            self._add_replica()
        self._prewarm_workspaces()
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Retire the newest replica threads (drained by the caller)."""
        if replicas >= len(self._pools):
            raise ConfigurationError("cannot shrink below one replica")
        for _ in range(replicas):
            self._cancels.pop().set()
            self._pools.pop().shutdown(wait=False, cancel_futures=True)
        self._rr %= len(self._pools)
        return 0.0

    def close(self) -> None:
        """Cancel every replica thread and drop the shared copy."""
        for cancel in self._cancels:
            cancel.set()
        for pool in self._pools:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pools = []
        self._cancels = []
        self._state = None


def make_dispatcher(spec: WorkerSpec, replicas: int, mode: str = "auto"):
    """Build the replica dispatcher for a deployment.

    ``mode="thread"`` runs replica threads over one shared programmed
    copy; ``mode="serial"`` serves inline on the coordinator;
    ``mode="auto"`` picks threads for two or more replicas and serial
    for one.
    """
    if mode not in ("auto", "thread", "serial"):
        raise ConfigurationError(
            f"serve mode must be auto|thread|serial, got {mode!r}"
        )
    if mode == "serial" or (mode == "auto" and replicas <= 1):
        return SerialDispatcher(spec, replicas)
    return ThreadDispatcher(spec, replicas)
