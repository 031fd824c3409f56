"""Replica-parallel dispatch of micro-batches onto one programmed copy.

A :class:`~repro.core.scheduler.BankScheduler` grant gives a
deployment ``R`` replica bank groups.  PRIME's replicas serve one set
of *stationary* programmed weights, and the dispatcher turns the grant
into execution capacity the same way: one :class:`ThreadDispatcher`
programs ONE :func:`program_state` copy at deploy and serves it for
the deployment's life, in one of two modes.

* **thread mode** — ``R`` replica threads serve the copy.  Every
  forward over it, on every path, only reads the programmed state
  (BLAS releases the GIL), so the threads evaluate concurrently;
  batches and results move as plain ndarray references.
* **serial mode** — no replica threads: every batch runs inline on
  the coordinator.  Same numbers, no overlap.

``mode="auto"`` picks threads for two or more replicas and serial for
one (:func:`make_dispatcher`).  Grow, restart and the degrade to
serial program nothing.  Every forward records telemetry straight
into the live session, each replica's on its own ``replica:N`` trace
track.

The copy (and the ``reference`` oracle) programs from one
:class:`WorkerSpec`, so results never depend on which replica a batch
lands on.  With noise enabled, every micro-batch draws its read noise
from a private stream seeded by batch index via
:func:`repro.perf.parallel.task_seed` (the first programmed layer's
:meth:`~repro.crossbar.layer.ProgrammedLayer.noise_stream`, under
:func:`~repro.device.cell.scoped_noise_stream`) — noisy serving is
reproducible and routing-independent too, and never moves the
programmed copy's own generator.  Reprogramming and drift renew each
layer's state token
(:meth:`~repro.crossbar.layer.ProgrammedLayer.invalidate`), which
retires the compiled plan's stacks.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.executor import PrimeExecutor
from repro.core.mapping import MappingPlan
from repro.crossbar.layer import ProgrammedLayer
from repro.device.cell import scoped_noise_stream
from repro.errors import ConfigurationError
from repro.nn.network import Sequential
from repro.params.prime import PrimeConfig
from repro.perf.parallel import task_seed
from repro.resilience.policy import ResiliencePolicy
from repro.serve.health import WorkerCrash, apply_drift

__all__ = [
    "WorkerSpec",
    "batch_noise_seed",
    "program_state",
    "run_programmed",
    "reprogram_state",
    "spec_resident_bytes",
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
    Every dispatch mode holds exactly one copy, however many replicas
    serve it.
    """
    xbar = spec.config.crossbar
    per_pair = 2 * xbar.rows * xbar.cols * _CELL_STATE_BYTES
    return sum(m.pairs * per_pair for m in spec.plan.weight_layers)


@dataclass
class WorkerSpec:
    """Everything a dispatcher needs to program and serve its copy.

    The copy and the ``ServingRuntime.reference`` oracle program from
    one spec, so they hold bit-identical state.
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
        return (
            self.with_noise
            or policy.verify_writes
            or (xbar.fault_rate_hrs, xbar.fault_rate_lrs) != (0.0, 0.0)
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
    the post-programming RNG state independent of it, and leaves no
    scratch buffers behind on the calling thread.
    """
    executor = PrimeExecutor(spec.config)
    rng = (
        np.random.default_rng(spec.seed) if spec.use_rng else None
    )
    programmed = executor.program_network(
        spec.network, spec.plan, rng=rng, resilience=spec.resilience
    )
    if spec.calibration is not None:
        _calibration_outputs(spec, executor, programmed)
        programmed[0].compiled_plan.free_scratch()
    if telemetry.enabled():
        telemetry.count("serve.programs")
    return executor, programmed


def _calibration_outputs(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
) -> np.ndarray:
    """The calibration batch's noise-free outputs.  Noise-free
    evaluation samples nothing, so it never perturbs the programmed
    RNG state."""
    return executor.run_functional(
        spec.network,
        spec.plan,
        spec.calibration,
        programmed=programmed,
        with_noise=False,
    )


def capture_reference(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
) -> np.ndarray | None:
    """The calibration batch's noise-free outputs (the drift-probe
    reference), or ``None`` when the spec carries no calibration or
    probing is off.  Taken at deploy and again after every
    reprogramming, since reprogramming with variation draws new
    conductances.  Like deploy-time calibration, it frees the calling
    thread's scratch afterwards
    (:meth:`~repro.perf.plan.CompiledPlan.free_scratch`): a thread
    that serves at all serves other widths."""
    if not spec.probe_reference or spec.calibration is None:
        return None
    reference = _calibration_outputs(spec, executor, programmed)
    programmed[0].compiled_plan.free_scratch()
    return reference


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
    out = _calibration_outputs(spec, executor, programmed)
    denom = float(np.linalg.norm(reference)) or 1.0
    return float(np.linalg.norm(out - reference)) / denom


def reprogram_state(
    spec: WorkerSpec, programmed: list[ProgrammedLayer]
) -> None:
    """Re-program every layer's cells to their stored MLC levels.

    The drift-recovery step: retention drift decays conductances but
    never the programmed *levels*, so each layer rewrites its cells
    from their own levels
    (:meth:`~repro.crossbar.layer.ProgrammedLayer.reprogram`, through
    the spec's program-and-verify policy when one is active) and
    renews its token, so the recovered cells reach subsequent
    evaluations.  That restores the deploy-time state: an exact array
    returns to its derived levels, and with programming variation each
    cell draws a fresh perturbation from the copy's generator.
    """
    policy = (
        spec.resilience
        if spec.resilience is not None
        else spec.config.resilience
    )
    verify = policy if policy.verify_writes else None
    for layer in programmed:
        layer.reprogram(verify)


def run_programmed(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Serve one micro-batch from already-programmed state.

    Writes nothing a concurrent call over the same copy reads, so
    replica threads share one copy.  A noisy batch with a
    ``noise_seed`` draws all its read noise from a fresh stream seeded
    with it (:meth:`~repro.crossbar.layer.ProgrammedLayer.noise_stream`
    under :func:`~repro.device.cell.scoped_noise_stream`): its result
    is a pure function of the seed and the batch, whichever thread
    serves it, and the copy's own generator never moves.
    """
    start = time.perf_counter() if spec.pace_batch_s else 0.0
    if spec.with_noise and noise_seed is not None:
        stream = programmed[0].noise_stream(noise_seed)
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
        # Hold the batch until the emulated device service time has
        # elapsed; see WorkerSpec.pace_batch_s.
        remaining = spec.pace_batch_s - (time.perf_counter() - start)
        if remaining > 0.0:
            time.sleep(remaining)
    return result


@dataclass
class ResultEnvelope:
    """A replica's result for one micro-batch, and what it cost."""

    value: object
    #: Wall nanoseconds spent executing the batch, plus any injected
    #: ``slow`` delay — always measured, so per-stage latency accounting
    #: stays available whenever the coordinator has telemetry enabled.
    execute_ns: int = 0


def _replica_track(replica: int):
    """Label the spans this thread records with ``replica:N``.

    Wraps every forward (inline batches included), so the Chrome trace
    keeps one track per replica.
    """
    session = telemetry.session()
    if session is None:
        return contextlib.nullcontext()
    return session.tracer.on_track(f"replica:{replica}")


def _resolved(fn, *args) -> Future:
    """Run ``fn`` on the calling thread and return an already-completed
    future holding its result, or its exception: delivered where a
    replica thread's would be, since the runtime reads every future in
    ``_resolve``."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class _StateLock:
    """Reader-writer lock over one shared programmed state.

    Calibrated micro-batches and drift probes only read the programmed
    state, on every execution path, and take the read side
    concurrently; state mutations (drift injection, background
    reprogramming, first-batch calibration) take the exclusive write
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
    """ONE programmed copy per deployment, served by N replicas.

    PRIME's replicas share *stationary* programmed weights, and so do
    these: the dispatcher programs a single :func:`program_state` copy
    at deploy and serves it for the deployment's life.  Every
    calibrated micro-batch runs under the state's read lock, whatever
    the deployment — ideal, varied, faulted, remapped, noisy, or walked
    with ``PRIME_FUSED=0``: a forward only reads the programmed state
    (:func:`run_programmed`; NumPy releases the GIL inside the
    matmuls).  First-batch calibration, drift and reprogramming take
    the write lock.

    In ``thread`` mode each replica is a single-thread pool, and the
    replicas evaluate concurrently while

    * concurrent exact forwards split OpenBLAS's threads between them
      instead of oversubscribing the cores (:mod:`repro.perf.blas`);
    * batch payloads and results move as plain ndarray references;
    * each thread's scratch buffers are allocated by its first forward
      (:meth:`~repro.perf.plan.CompiledPlan.execute`).

    Tiny micro-batches (at most :data:`_INLINE_MAX_SAMPLES` samples)
    run inline on the dispatching thread, through the same task (read
    lock, cancellation check, measured ``execute_ns``, envelope), and
    come back as an already-completed future: at batch 1 a replica
    thread only adds a GIL handoff with the coordinator's poll loop
    to a forward the coordinator could run itself.  Batches that
    carry a fault, paced batches and the first batch of an
    uncalibrated copy keep the replica threads.  In a
    :class:`~repro.serve.cluster.ServingCluster` an inline batch holds
    the cluster loop for one forward pass.

    In ``serial`` mode there are no replica threads: every batch (and
    every drift probe) takes that inline path.  :meth:`serialize` is
    the runtime's degrade-to-serial fallback: it retires every replica
    thread and keeps the copy and the replica count.

    Either way grow adds a replica and restart replaces one without
    re-programming anything (:meth:`resident_bytes` is one copy), and
    noise-on batches draw from private per-batch streams, so results
    stay routing-independent and bit-identical to
    ``ServingRuntime.reference`` in both modes.

    Fault model: threads cannot be SIGKILLed.  An injected ``kill``
    surfaces as :class:`WorkerCrash`; on a replica thread a ``hang``
    really sleeps but wakes early when its replica's cancellation
    event fires — :meth:`restart_replica` is cooperative cancellation
    plus a fresh pool (cost: microseconds), and the runtime's existing
    quarantine/retire/degrade-to-serial machinery does the rest.
    Inline on the coordinator a hang presents as a crash at once.
    ``drift`` mutates the one copy (every replica sees it), and
    :meth:`reprogram` heals every replica at once for the same reason.
    """

    def __init__(
        self, spec: WorkerSpec, replicas: int = 1, mode: str = "thread"
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.spec = spec
        #: ``thread`` or ``serial``; :meth:`serialize` switches a
        #: thread dispatcher to serial.
        self.mode = mode
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
        #: One single-thread pool per replica in thread mode; none in
        #: serial mode.
        self._pools: list[ThreadPoolExecutor] = []
        #: One cancellation event per replica, in both modes.
        self._cancels: list[threading.Event] = []
        self._rr = 0
        for _ in range(replicas):
            self._add_replica()

    def _new_pool(self, replica: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"serve-replica-{replica}"
        )

    def _add_replica(self) -> None:
        # The pool first: a replica whose thread pool cannot be made
        # leaves no cancellation event behind.
        if self.mode == "thread":
            self._pools.append(self._new_pool(len(self._pools)))
        self._cancels.append(threading.Event())

    @property
    def replicas(self) -> int:
        return len(self._cancels)

    @property
    def inflight_limit(self) -> int | None:
        """Batches the runtime may leave uncollected: a few per
        replica thread (:data:`_INFLIGHT_PER_REPLICA`) keeps every
        thread busy without unbounded queue growth.  ``None`` without
        replica threads: inline dispatch resolves every future before
        it returns."""
        if not self._pools:
            return None
        return _INFLIGHT_PER_REPLICA * len(self._pools)

    def resident_bytes(self) -> int:
        """One programmed copy, however many replicas serve it."""
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
                # The coordinator cannot stall without stalling
                # serving, so an inline hang is a crash at once.
                if self.mode == "serial" or cancel.wait(fault[1]):
                    raise WorkerCrash("hung task cancelled cooperatively")
        start = time.perf_counter_ns()
        # Exclusive only while the first batch still has calibration
        # to freeze, a state mutation.
        lock = self._lock.read() if self._calibrated else self._lock.write()
        with _replica_track(replica), lock:
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
        return ResultEnvelope(value=result, execute_ns=execute_ns)

    def _runs_inline(self, batch: np.ndarray, fault: tuple | None) -> bool:
        """Whether ``batch`` runs on the dispatching thread.

        Every batch in serial mode.  In thread mode only a tiny batch
        on the concurrent read path: a fault must occupy a replica
        thread (a hang would stall the coordinator), so must pacing (it
        models a busy device, not a busy host), and a first
        uncalibrated batch needs the write lock.
        """
        return self.mode == "serial" or (
            len(batch) <= _INLINE_MAX_SAMPLES
            and fault is None
            and not self.spec.pace_batch_s
            and self._calibrated
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
            self._rr = (self._rr + 1) % self.replicas
        else:
            replica %= self.replicas
        args = (batch, noise_seed, fault, self._cancels[replica], replica)
        if self._runs_inline(batch, fault):
            return _resolved(self._task, *args)
        return self._pools[replica].submit(self._task, *args)

    def restart_replica(self, replica: int) -> float:
        """Cooperatively cancel and replace one replica.

        Sets the replica's cancellation event (waking a hung task) and
        installs a fresh one; in thread mode it also retires the
        replica's pool without waiting and starts a fresh single-thread
        pool.  The programmed copy needs no re-programming — the
        replica was the problem, not the copy — so the measured cost is
        microseconds.
        """
        replica %= self.replicas
        start = time.perf_counter()
        self._cancels[replica].set()
        self._cancels[replica] = threading.Event()
        if self._pools:
            self._pools[replica].shutdown(wait=False, cancel_futures=True)
            self._pools[replica] = self._new_pool(replica)
        return time.perf_counter() - start

    def _probe_task(self) -> float:
        with self._lock.read():
            # Read inside the lock: a reprogram replaces the reference.
            state = self._state
            if state is None:
                raise WorkerCrash("dispatcher closed")
            executor, programmed, cal_ref = state
            return drift_distance(self.spec, executor, programmed, cal_ref)

    def probe_replica(self, replica: int) -> Future:
        """The copy's drift distance, measured on one replica: queued
        on its thread, or inline in serial mode."""
        if not self._pools:
            return _resolved(self._probe_task)
        return self._pools[replica % len(self._pools)].submit(
            self._probe_task
        )

    def reprogram(self) -> float:
        """Re-program the copy from its stored levels and re-capture
        its probe reference from them.

        Taken under the exclusive write lock (in-flight batches finish
        first, queued ones wait), and because every replica serves the
        one copy, one reprogramming heals them all.  Returns the
        measured wall seconds.
        """
        state = self._state
        if state is None:
            raise WorkerCrash("dispatcher closed")
        executor, programmed, _ = state
        start = time.perf_counter()
        with self._lock.write():
            reprogram_state(self.spec, programmed)
            self._state = (
                executor,
                programmed,
                capture_reference(self.spec, executor, programmed),
            )
        return time.perf_counter() - start

    def grow(self, replicas: int = 1) -> float:
        """Add replicas; returns the measured wall seconds.

        No programming: a new single-thread pool per replica in thread
        mode, a cancellation event in serial mode — a
        microsecond-scale scale-up.  A grow that fails part way retires
        the replicas it added before it re-raises, so the count stays
        the caller's.
        """
        if replicas < 1:
            raise ConfigurationError("grow needs replicas >= 1")
        start = time.perf_counter()
        added = 0
        try:
            for _ in range(replicas):
                self._add_replica()
                added += 1
        except BaseException:
            if added:
                self.shrink(added)
            raise
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Retire the newest replicas (drained by the caller)."""
        if replicas >= self.replicas:
            raise ConfigurationError("cannot shrink below one replica")
        for _ in range(replicas):
            self._cancels.pop().set()
            if self._pools:
                self._pools.pop().shutdown(wait=False, cancel_futures=True)
        self._rr %= self.replicas
        return 0.0

    def _retire_threads(self) -> None:
        for cancel in self._cancels:
            cancel.set()
        for pool in self._pools:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pools = []

    def serialize(self) -> None:
        """Switch to serial mode over the copy already held.

        Cancels every replica thread (a hung one wakes and retires
        without taking a request with it) and serves every later batch
        inline; the replica count and the programmed copy stay.
        """
        self._retire_threads()
        self._cancels = [threading.Event() for _ in self._cancels]
        self.mode = "serial"

    def close(self) -> None:
        """Cancel every replica thread and drop the copy."""
        self._retire_threads()
        self._cancels = []
        self._state = None


def make_dispatcher(spec: WorkerSpec, replicas: int, mode: str = "auto"):
    """Build the replica dispatcher for a deployment.

    ``mode="thread"`` runs replica threads over the one programmed
    copy; ``mode="serial"`` serves it inline on the coordinator;
    ``mode="auto"`` picks threads for two or more replicas and serial
    for one.
    """
    if mode not in ("auto", "thread", "serial"):
        raise ConfigurationError(
            f"serve mode must be auto|thread|serial, got {mode!r}"
        )
    if mode == "auto":
        mode = "thread" if replicas > 1 else "serial"
    return ThreadDispatcher(spec, replicas, mode)
