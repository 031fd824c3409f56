"""Replica-parallel dispatch of micro-batches onto programmed workers.

A :class:`~repro.core.scheduler.BankScheduler` grant gives a
deployment ``R`` replica bank groups — ``R`` independent copies of the
programmed network.  The dispatcher turns that grant into execution
capacity:

* **process mode** — a persistent ``ProcessPoolExecutor`` with one
  worker per replica.  Each worker programs its copy *exactly once*
  (in the pool initializer) and serves every subsequent micro-batch
  from the cached :class:`~repro.core.executor.ProgrammedLayer` list
  with frozen calibration; batches round-robin across workers.
* **serial mode** — the in-process fallback (sandboxes without fork,
  ``mode="serial"``): one programmed copy served inline.  Same
  numbers, no overlap.

Process mode moves batch payloads through **shared-memory slabs**: the
coordinator allocates one ``multiprocessing.shared_memory`` slab per
replica, sized from the micro-batcher's ``max_batch`` and the widest
mapped layer, and batch inputs/results travel as
:class:`ShmRef` ``(slab, offset, shape, dtype)`` descriptors instead
of pickled ndarrays — only the small ResultEnvelope metadata
(telemetry deltas, timings) still pickles.  ``PRIME_SHM=0`` disables
the slabs; slab exhaustion or oversized payloads fall back to pickling
that batch (counted as ``serve.dispatch.shm_fallback``), so shared
memory is purely an optimisation with identical results either way.

All replicas program from one :class:`WorkerSpec` (same seed), so they
hold bit-identical state and results never depend on which replica a
batch lands on.  With noise enabled, every micro-batch additionally
reseeds the engines' shared noise stream from a per-batch seed
(:meth:`~repro.perf.kernels.FusedLayerKernel.reseed_noise`), keyed by
batch index via :func:`repro.perf.parallel.task_seed` — noisy serving
is reproducible and routing-independent too.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import threading
import time
import warnings
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro import telemetry
from repro.core.executor import PrimeExecutor, ProgrammedLayer
from repro.core.mapping import MappingPlan
from repro.device.faults import env_fault_rates
from repro.errors import ConfigurationError
from repro.knobs import env_knob
from repro.nn.network import Sequential
from repro.params.prime import PrimeConfig
from repro.perf.kernels import fused_enabled, scoped_noise_stream
from repro.perf.parallel import ParallelFallbackWarning, task_seed
from repro.resilience.policy import ResiliencePolicy
from repro.serve.health import WorkerCrash, apply_drift
from repro.telemetry.shipping import ResultEnvelope, run_scoped

__all__ = [
    "WorkerSpec",
    "ShmRef",
    "shm_enabled",
    "pool_timeout_s",
    "dispatch_mode",
    "batch_noise_seed",
    "program_state",
    "run_programmed",
    "run_programmed_shared",
    "reprogram_state",
    "spec_resident_bytes",
    "SerialDispatcher",
    "ThreadDispatcher",
    "ProcessDispatcher",
    "POOL_SPAWN_FAILURES",
    "serial_fallback",
    "make_dispatcher",
]

logger = logging.getLogger("repro.serve")

#: Default seconds to wait for a pool worker to program its replica
#: before declaring it dead (``PRIME_POOL_TIMEOUT_S`` overrides).
_POOL_TIMEOUT_DEFAULT_S = 300.0


def _positive_seconds(raw: str) -> float:
    value = float(raw)
    if value <= 0.0 or not np.isfinite(value):
        raise ValueError(raw)
    return value


def pool_timeout_s() -> float:
    """Pool worker probe/initialise timeout (``PRIME_POOL_TIMEOUT_S``).

    Bounds how long the coordinator waits for a worker to program its
    replica (spawn, restart) or answer a control call (drift probe,
    reprogram).  Bad values log a warning and keep the default rather
    than raising at deploy time, mirroring the other ``PRIME_*`` knobs.
    """
    return env_knob(
        "PRIME_POOL_TIMEOUT_S",
        _positive_seconds,
        _POOL_TIMEOUT_DEFAULT_S,
        logger,
        "a positive number",
        f"keeping the default ({_POOL_TIMEOUT_DEFAULT_S:g}s)",
    )


#: Shared-memory slots per replica slab — the inflight micro-batch
#: depth one replica's slab can hold before dispatch falls back to
#: pickling (the runtime keeps at most a handful of batches inflight
#: per replica, so four slots absorb normal pipelining).
_SLAB_SLOTS = 4
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


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def shm_enabled() -> bool:
    """Whether shared-memory dispatch is enabled (``PRIME_SHM``).

    ``"0"`` disables; unset/``"1"`` enable.  Any other value logs a
    warning and keeps the default rather than raising at deploy time,
    mirroring the other ``PRIME_*`` knobs.
    """
    return env_knob(
        "PRIME_SHM",
        _switch,
        True,
        logger,
        "0 or 1",
        "keeping the default (enabled)",
    )


def _dispatch_choice(raw: str) -> str | None:
    mode = raw.lower()
    if mode == "auto":
        return None
    if mode not in ("serial", "thread", "process"):
        raise ValueError(raw)
    return mode


def dispatch_mode() -> str | None:
    """Dispatch-mode override (``PRIME_DISPATCH``).

    ``serial`` | ``thread`` | ``process`` force that dispatcher
    wherever a deployment asks for ``mode="auto"``; unset (or
    ``auto``) keeps the automatic choice.  Explicit per-deployment
    modes always win — the env knob only steers ``auto``.  Bad values
    log a warning and keep the default rather than raising at deploy
    time, mirroring the other ``PRIME_*`` knobs.
    """
    return env_knob(
        "PRIME_DISPATCH",
        _dispatch_choice,
        None,
        logger,
        "serial, thread, process, or auto",
        "keeping the default (auto)",
    )


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
    mode shares one copy across all replica threads, serial/process
    mode hold one per replica.
    """
    xbar = spec.config.crossbar
    per_pair = 2 * xbar.rows * xbar.cols * _CELL_STATE_BYTES
    return sum(m.pairs * per_pair for m in spec.plan.weight_layers)


@dataclass(frozen=True)
class ShmRef:
    """Descriptor of an ndarray resident in a shared-memory slab.

    This is all that crosses the process boundary for a batch payload;
    both sides rebuild the array as a view over the mapped slab.
    """

    name: str
    offset: int
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class _ResultSlot:
    """Where a worker should place a batch's result array."""

    name: str
    offset: int
    capacity: int


class _SlabPool:
    """Coordinator-side shared-memory slabs, one per replica.

    Each slab holds :data:`_SLAB_SLOTS` slots of ``in_bytes`` (batch
    input) plus ``out_bytes`` (result) — a slot is held from dispatch
    until the batch's future resolves, so slab memory is bounded by the
    inflight depth, not the request count.

    Every slab carries a **generation counter** bumped by
    :meth:`reclaim_replica` (the replica-restart path): an acquire key
    embeds the generation it was issued under, and a release with a
    stale generation is ignored.  That makes slot recovery after a
    crashed or hung replica safe — reclaim returns every held slot to
    the free list, and whatever late release the abandoned futures
    would eventually issue cannot double-free a slot the restarted
    replica has since re-acquired.
    """

    def __init__(
        self,
        replicas: int,
        slots: int,
        in_bytes: int,
        out_bytes: int,
    ) -> None:
        self.in_bytes = in_bytes
        self.out_bytes = out_bytes
        self.slots = slots
        self.slot_bytes = in_bytes + out_bytes
        self.slabs: list[SharedMemory] = []
        self._by_name: dict[str, SharedMemory] = {}
        self._free: list[list[int]] = []
        self._gen: list[int] = []
        self._next = 0
        for _ in range(replicas):
            self.add_replica()

    def add_replica(self) -> None:
        """Allocate one more replica slab (autoscaler grow path)."""
        shm = SharedMemory(create=True, size=self.slots * self.slot_bytes)
        self.slabs.append(shm)
        self._by_name[shm.name] = shm
        self._free.append(list(range(self.slots)))
        self._gen.append(0)

    def remove_replica(self) -> None:
        """Release the last replica slab (autoscaler shrink path).

        The caller must have drained that replica's inflight batches —
        removing a slab with held slots is a bug, not a race.
        """
        if len(self._free[-1]) != self.slots:
            raise ConfigurationError(
                "cannot remove a replica slab with inflight slots"
            )
        shm = self.slabs.pop()
        self._free.pop()
        self._gen.pop()
        del self._by_name[shm.name]
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def reclaim_replica(self, replica: int) -> int:
        """Return every held slot of a replica's slab to the free list.

        The replica-restart path: the worker holding those slots has
        been killed, so nothing will write into them again.  Bumps the
        slab's generation so late releases from the abandoned futures
        are ignored.  Returns the number of slots recovered.
        """
        i = replica % len(self.slabs)
        recovered = self.slots - len(self._free[i])
        self._gen[i] += 1
        self._free[i] = list(range(self.slots))
        return recovered

    @property
    def held_slots(self) -> int:
        """Slots currently held by inflight batches (accounting)."""
        return sum(self.slots - len(free) for free in self._free)

    def acquire(
        self, replica: int | None = None
    ) -> tuple[int, int, int] | None:
        """A free ``(slab, slot, generation)``; ``None`` when none is
        available.

        With ``replica`` given the slot is pinned to that replica's
        slab (the per-replica worker pool executes straight off its own
        slab); without it the pool rotates across replica slabs (the
        legacy round-robin used by direct dispatcher micro-benches).
        """
        n = len(self.slabs)
        if replica is not None:
            i = replica % n
            if self._free[i]:
                return i, self._free[i].pop(), self._gen[i]
            return None
        start = self._next
        self._next = (start + 1) % n
        for k in range(n):
            i = (start + k) % n
            if self._free[i]:
                return i, self._free[i].pop(), self._gen[i]
        return None

    def release(self, slab: int, slot: int, gen: int = -1) -> None:
        if 0 <= slab < len(self.slabs):
            if gen >= 0 and gen != self._gen[slab]:
                # Stale release from before a reclaim: the slot already
                # went back to the free list (and may be held again).
                return
            self._free[slab].append(slot)

    def stage(
        self, key: tuple[int, int, int], batch: np.ndarray
    ) -> tuple[ShmRef, _ResultSlot]:
        """Copy ``batch`` into the slot's input region.

        Returns the input descriptor plus the result region the worker
        writes back into — the only per-batch copies left are this one
        and the coordinator-side result materialisation.
        """
        slab, slot = key[0], key[1]
        shm = self.slabs[slab]
        base = slot * self.slot_bytes
        view = np.ndarray(
            batch.shape, dtype=batch.dtype, buffer=shm.buf, offset=base
        )
        view[...] = batch
        return (
            ShmRef(shm.name, base, batch.shape, batch.dtype.str),
            _ResultSlot(shm.name, base + self.in_bytes, self.out_bytes),
        )

    def view(self, ref: ShmRef) -> np.ndarray:
        """The coordinator-side array view a worker's ref describes."""
        shm = self._by_name[ref.name]
        return np.ndarray(
            ref.shape,
            dtype=np.dtype(ref.dtype),
            buffer=shm.buf,
            offset=ref.offset,
        )

    def close(self) -> None:
        for shm in self.slabs:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass


@dataclass
class WorkerSpec:
    """Everything a worker needs to program and serve one replica.

    Picklable by construction (plain numpy networks, frozen config
    dataclasses, pickled mapping plans) so one spec fans out to every
    pool worker via the initializer.
    """

    network: Sequential
    plan: MappingPlan
    config: PrimeConfig
    seed: int
    with_noise: bool = False
    resilience: ResiliencePolicy | None = None
    calibration: np.ndarray | None = field(default=None, repr=False)
    #: Record telemetry worker-side under a scratch session and ship it
    #: back in every :class:`~repro.telemetry.shipping.ResultEnvelope`.
    #: Set by the runtime when the coordinator has telemetry enabled at
    #: deploy time; costs nothing when off.
    ship_telemetry: bool = False
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
    """Program one replica from ``spec`` (the once-per-worker step).

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


# ----------------------------------------------------------------------
# process-pool worker entry points (module-level for pickling)
# ----------------------------------------------------------------------

#: Per-process worker state: (spec, executor, programmed) after init.
_WORKER_STATE: tuple | None = None
#: Slab attachments cached per worker process (name -> SharedMemory);
#: a replica re-attaches each slab at most once for its lifetime.
_WORKER_SLABS: dict[str, SharedMemory] = {}


def _worker_view(ref: ShmRef) -> np.ndarray:
    """The worker-side array view a coordinator ref describes."""
    shm = _WORKER_SLABS.get(ref.name)
    if shm is None:
        shm = SharedMemory(name=ref.name)
        _WORKER_SLABS[ref.name] = shm
    return np.ndarray(
        ref.shape,
        dtype=np.dtype(ref.dtype),
        buffer=shm.buf,
        offset=ref.offset,
    )
#: Telemetry recorded while this worker initialised (programming +
#: calibration), held until the first served batch ships it to the
#: coordinator.  Kept separate from per-batch deltas so execution
#: telemetry stays a pure function of the batches served — the
#: serial-vs-process determinism contract.
_WORKER_INIT_DELTA = None
#: Program-time calibration outputs (the drift-probe reference);
#: ``None`` unless the spec enables ``probe_reference``.
_WORKER_CAL_REF: np.ndarray | None = None


def _apply_fault(
    fault: tuple | None,
    programmed: list[ProgrammedLayer],
    before: bool,
) -> int:
    """Execute a chaos-harness fault payload in a pool worker.

    ``before`` selects the pre-compute phase (kill, hang) vs the
    post-compute phase (slow, drift).  Returns extra nanoseconds to
    fold into the envelope's reported execution time (slow faults).
    """
    if fault is None:
        return 0
    kind = fault[0]
    if before:
        if kind == "kill":
            # Die the way a segfaulted worker would: no unwinding, no
            # result — the coordinator sees BrokenProcessPool.
            os._exit(17)
        if kind == "hang":
            time.sleep(fault[1])
        return 0
    if kind == "slow":
        return int(fault[1] * 1e9)
    if kind == "drift":
        apply_drift(programmed, fault[1], fault[2])
    return 0


def _serve_batch(
    spec: WorkerSpec,
    executor: PrimeExecutor,
    programmed: list[ProgrammedLayer],
    batch: np.ndarray,
    noise_seed: int | None,
    ship: bool,
    init_delta=None,
) -> ResultEnvelope:
    """Run one micro-batch and envelope the result.

    Shared by both dispatchers so serial and process mode produce their
    telemetry deltas through the *same* code path — the arithmetic that
    makes merged counter totals bit-identical across modes.  Execution
    wall time is measured even with shipping off, so the coordinator's
    per-stage latency accounting works in every mode.
    """
    if ship:
        result, delta, execute_ns = run_scoped(
            run_programmed, spec, executor, programmed, batch, noise_seed
        )
        return ResultEnvelope(
            value=result,
            worker=os.getpid(),
            execute_ns=execute_ns,
            telemetry=None if delta.empty else delta,
            init_telemetry=init_delta,
        )
    start = time.perf_counter_ns()
    result = run_programmed(spec, executor, programmed, batch, noise_seed)
    return ResultEnvelope(
        value=result,
        worker=os.getpid(),
        execute_ns=time.perf_counter_ns() - start,
    )


def _pool_init(payload: bytes) -> None:
    global _WORKER_STATE, _WORKER_INIT_DELTA, _WORKER_CAL_REF
    spec = pickle.loads(payload)
    if spec.ship_telemetry:
        state, delta, _ = run_scoped(program_state, spec)
        _WORKER_INIT_DELTA = None if delta.empty else delta
    else:
        state = program_state(spec)
    _WORKER_STATE = (spec,) + state
    _WORKER_CAL_REF = capture_reference(spec, *state)


def _pool_run(args: tuple) -> ResultEnvelope:
    global _WORKER_INIT_DELTA
    batch, noise_seed, ship, result_slot, fault = (
        args + (None,) * (5 - len(args))
    )
    if isinstance(batch, ShmRef):
        # Zero-copy input: execute straight off the slab view (the
        # coordinator holds the slot until this batch's future
        # resolves, so the region cannot be rewritten underneath us).
        batch = _worker_view(batch)
    spec, executor, programmed = _WORKER_STATE
    _apply_fault(fault, programmed, before=True)
    envelope = _serve_batch(
        spec,
        executor,
        programmed,
        batch,
        noise_seed,
        ship,
        init_delta=_WORKER_INIT_DELTA if ship else None,
    )
    envelope.execute_ns += _apply_fault(fault, programmed, before=False)
    if ship:
        _WORKER_INIT_DELTA = None
    result = envelope.value
    if (
        result_slot is not None
        and isinstance(result, np.ndarray)
        and result.nbytes <= result_slot.capacity
    ):
        out = np.ndarray(
            result.shape,
            dtype=result.dtype,
            buffer=_WORKER_SLABS[result_slot.name].buf,
            offset=result_slot.offset,
        )
        out[...] = result
        envelope.value = ShmRef(
            result_slot.name,
            result_slot.offset,
            result.shape,
            result.dtype.str,
        )
    return envelope


def _pool_ping() -> int:
    """Worker pid when programmed, 0 otherwise (truthiness = liveness).

    The coordinator records the pid so a hung worker — one sleeping
    inside a batch, which ``shutdown(wait=False)`` cannot interrupt —
    can be SIGKILLed before its slab slots are reclaimed.
    """
    return os.getpid() if _WORKER_STATE is not None else 0


def _pool_drift_probe() -> float:
    """Health probe: relative distance of the calibration outputs from
    the program-time reference (0.0 when probing is not configured)."""
    spec, executor, programmed = _WORKER_STATE
    return drift_distance(spec, executor, programmed, _WORKER_CAL_REF)


def _pool_reprogram() -> float:
    """Re-program this worker's replica in place; returns the measured
    worker-side wall seconds (the background reprogramming cost)."""
    spec, executor, programmed = _WORKER_STATE
    start = time.perf_counter()
    reprogram_state(spec, programmed)
    return time.perf_counter() - start


class SerialDispatcher:
    """In-process fallback: programmed copies served inline.

    ``dispatch`` returns an already-resolved :class:`Future` holding a
    :class:`~repro.telemetry.shipping.ResultEnvelope`, so the runtime
    drives both dispatchers identically — including telemetry shipping:
    serial execution records into the same scratch-session envelope a
    pool worker would, and the runtime merges it back the same way.

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
        self._init_delta = None

    def _program(self) -> tuple:
        executor, programmed = program_state(self.spec)
        return (
            executor,
            programmed,
            capture_reference(self.spec, executor, programmed),
        )

    def _ensure(self, replica: int = 0):
        if not self._states:
            if self.spec.ship_telemetry:
                state, delta, _ = run_scoped(self._program)
                self._init_delta = None if delta.empty else delta
            else:
                state = self._program()
            self._states.append(state)
        return self._states[min(replica, len(self._states) - 1)]

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        executor, programmed, _ = self._ensure(
            0 if replica is None else replica % max(self.replicas, 1)
        )
        future: Future = Future()
        if fault is not None and fault[0] in ("kill", "hang"):
            # Serial mode cannot lose or stall a worker process — it
            # *is* the coordinator — so both present as a crash.
            future.set_exception(
                WorkerCrash(f"injected {fault[0]} fault")
            )
            return future
        envelope = _serve_batch(
            self.spec,
            executor,
            programmed,
            batch,
            noise_seed,
            ship,
            init_delta=self._init_delta if ship else None,
        )
        if fault is not None:
            if fault[0] == "slow":
                envelope.execute_ns += int(fault[1] * 1e9)
            elif fault[0] == "drift":
                apply_drift(programmed, fault[1], fault[2])
        future.set_result(envelope)
        if ship:
            self._init_delta = None
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
        self._init_delta = None


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

    PRIME's replicas share *stationary* programmed weights; process
    replicas emulate that with one private copy (and one programming
    pass) per OS process, paying spawn + program on every scale-up and
    IPC on every batch.  Thread replicas instead run against a single
    :func:`program_state` copy: fused/compiled execution is pure
    read-only NumPy matmuls over frozen conductance stacks (and NumPy
    releases the GIL inside them), so per-replica single-thread pools
    evaluate concurrently while

    * batch payloads and results move as plain ndarray references —
      zero-copy by construction, no slabs, no pickling;
    * scale-up allocates only per-thread scratch workspaces
      (:meth:`~repro.perf.plan.CompiledPlan.prewarm` — microseconds,
      vs fork + program for a process replica);
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
        # One programmed copy, made on the coordinator thread — with
        # telemetry on, its programming/calibration records straight
        # into the live session (no scratch-session shipping, which
        # swaps a process-global and is not thread-safe).
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
        index = len(self._pools)
        self._cancels.append(threading.Event())
        self._pools.append(
            ThreadPoolExecutor(
                max_workers=1,
                thread_name_prefix=f"serve-replica-{index}",
            )
        )

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
        """Same pipelining depth process mode gets from its slab
        slots: a few batches in flight per replica keeps every thread
        busy without unbounded queue growth."""
        return _SLAB_SLOTS * max(1, len(self._pools))

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
        if self._parallel and self._calibrated:
            with self._lock.read():
                result = run_programmed_shared(
                    spec, executor, programmed, batch, noise_seed
                )
        else:
            # Exclusive: either the first batch still has calibration
            # to freeze (a state mutation), or this workload's kernels
            # cannot take the re-entrant path at all.
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
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        # ``ship`` is accepted for interface parity but moot: thread
        # workers record telemetry inline into the live session (the
        # registry and tracer are lock-guarded and the span stack is
        # thread-local), so there is no delta to ship back.
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
        try:
            self._pools[replica].shutdown(
                wait=False, cancel_futures=True
            )
        except Exception:  # pragma: no cover - pool already broken
            pass
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
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best effort
                pass
        self._pools = []
        self._cancels = []
        self._state = None


class _ShmFuture:
    """Future adapter that materialises a slab-resident result.

    Resolves the pool future, copies the result out of the shared
    slot (workers only hold the slot until then), and releases the
    slot exactly once.  A timeout leaves the slot held — the worker
    may still be writing into it; the recovery path (restart the
    replica, which kills the worker and reclaims its slab's slots)
    then calls :meth:`abandon` so this future never frees the slot a
    second time.
    """

    def __init__(self, inner: Future, slabs: _SlabPool, key) -> None:
        self._inner = inner
        self._slabs = slabs
        self._key = key
        self._envelope = None

    def result(self, timeout: float | None = None) -> ResultEnvelope:
        if self._key is None:
            return self._envelope
        try:
            envelope = self._inner.result(timeout)
        except (TimeoutError, _FuturesTimeout):
            raise
        except BaseException:
            self._slabs.release(*self._key)
            self._key = None
            raise
        value = envelope.value
        if isinstance(value, ShmRef):
            envelope.value = self._slabs.view(value).copy()
        else:
            # Worker-side fallback: the result outgrew the slot (e.g.
            # a network reprogrammed to a wider head) and was pickled.
            telemetry.count("serve.dispatch.shm_fallback", reason="result")
        self._slabs.release(*self._key)
        self._key = None
        self._envelope = envelope
        return envelope

    def abandon(self) -> None:
        """Detach from the slab slot without releasing it.

        Called after the slot's replica was restarted: the restart
        already reclaimed (and re-generationed) the slot, so a release
        from this future would be stale.  Idempotent; a later
        ``result()`` on an abandoned future returns nothing useful and
        must not be relied on.
        """
        self._key = None

    def done(self) -> bool:
        return self._inner.done()


class ProcessDispatcher:
    """Per-replica persistent worker pools with programmed state.

    Every replica bank group gets its *own* single-worker
    ``ProcessPoolExecutor`` (the worker programs its copy exactly once,
    in the pool initializer), so batch → replica routing is explicit:
    the coordinator can keep each replica's queue saturated
    independently, and a replica grant can grow or shrink live — grow
    spawns one more pool (its programming cost is measured and
    returned), shrink retires the newest pool after the runtime drains
    it.  ``slab_shape=(max_batch, in_elems, out_elems)`` enables the
    shared-memory payload path: per-replica slabs sized for
    ``max_batch`` samples of the widest layer, pinned to their
    replica's pool.  Without it (or with ``PRIME_SHM=0``) every batch
    pickles through the pool pipe.
    """

    mode = "process"

    def __init__(
        self,
        spec: WorkerSpec,
        replicas: int,
        slab_shape: tuple[int, int, int] | None = None,
        defer_spawn: bool = False,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        self.spec = spec
        # Start the multiprocessing resource tracker before the pools
        # fork so every worker inherits it: attaching a slab then
        # registers into the same tracker (an idempotent set add, and
        # the coordinator's unlink clears it once) instead of spawning
        # a per-worker tracker that would try to clean the slab a
        # second time at worker exit.
        try:
            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker is best-effort
            pass
        self._payload = pickle.dumps(spec)
        self._pools: list[ProcessPoolExecutor] = []
        self._pids: list[int] = []
        self._rr = 0
        #: In-flight deferred spawn: ``(pools, probes)`` whose workers
        #: are forking and programming in the background, not yet
        #: awaited.  With ``defer_spawn`` the constructor returns as
        #: soon as the probes are submitted, so a multi-tenant deploy
        #: starts every tenant's programming concurrently and only then
        #: awaits them (:meth:`finish_spawn`) — cluster startup wall
        #: time stops scaling with tenant x replica count.
        self._pending_spawn: tuple[list, list] | None = None
        try:
            if defer_spawn:
                self._pending_spawn = self._begin_spawn(replicas)
            else:
                self._spawn(replicas)
        except BaseException:
            self.close()
            raise
        self._slabs: _SlabPool | None = None
        self._slab_bytes: tuple[int, int] | None = None
        if slab_shape is not None and shm_enabled():
            max_batch, in_elems, out_elems = slab_shape
            self._slab_bytes = (
                max_batch * in_elems * 8,
                max_batch * out_elems * 8,
            )
            try:
                self._slabs = _SlabPool(
                    replicas, _SLAB_SLOTS, *self._slab_bytes
                )
            except OSError as exc:
                logger.warning(
                    "shared-memory slabs unavailable (%s: %s); "
                    "dispatching pickled batches",
                    type(exc).__name__,
                    exc,
                )
                warnings.warn(
                    "shared-memory slabs unavailable "
                    f"({type(exc).__name__}); dispatching pickled "
                    "batches",
                    ParallelFallbackWarning,
                    stacklevel=2,
                )
                telemetry.count(
                    "serve.dispatch.shm_fallback", reason="unavailable"
                )

    @property
    def replicas(self) -> int:
        pending = getattr(self, "_pending_spawn", None)
        return len(self._pools) + (len(pending[0]) if pending else 0)

    def _begin_spawn(self, n: int) -> tuple[list, list]:
        """Start ``n`` replica pools without awaiting their workers.

        Creating the pools and submitting the ping probes is what
        actually kicks off each worker's fork + one-time
        ``program_state`` (the pool initializer runs before the probe
        can answer), so after this returns all ``n`` replicas are
        programming concurrently in the background.  The returned
        ``(pools, probes)`` must be passed to :meth:`_finish_spawn`
        before the pools are used.
        """
        pools = [
            ProcessPoolExecutor(
                max_workers=1,
                initializer=_pool_init,
                initargs=(self._payload,),
            )
            for _ in range(n)
        ]
        try:
            probes = [pool.submit(_pool_ping) for pool in pools]
        except BaseException:
            for pool in pools:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
            raise
        return pools, probes

    def _finish_spawn(self, pending: tuple[list, list]) -> None:
        """Await a batch of started pools and adopt them.

        The new pools only join :attr:`_pools` once every probe has
        answered — a partial spawn failure shuts the batch of new pools
        down and leaves the dispatcher exactly as it was, so a later
        ``grow()`` retry starts clean.
        """
        pools, probes = pending
        try:
            timeout = pool_timeout_s()
            pids = []
            for probe in probes:
                pid = probe.result(timeout=timeout)
                if not pid:
                    raise BrokenProcessPool(
                        "pool worker failed to initialise"
                    )
                pids.append(pid)
        except BaseException:
            for pool in pools:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
            raise
        self._pools.extend(pools)
        self._pids.extend(pids)

    def _spawn(self, n: int) -> None:
        """Start ``n`` replica pools and wait for their workers.

        Programming happens in the pool initializer, so an environment
        that cannot host a pool (no fork, broken pickling) fails here,
        where ``make_dispatcher`` can still fall back to serial, not on
        the first real request.  The ping probes are submitted to every
        new pool before any is awaited (:meth:`_begin_spawn`), so
        replica programming overlaps.
        """
        self._finish_spawn(self._begin_spawn(n))

    def finish_spawn(self) -> None:
        """Await a construction-time deferred spawn, if one is pending.

        Idempotent; every dispatch/control entry point calls it, so a
        caller that never explicitly finishes a deferred deploy still
        gets a fully-spawned dispatcher on first use.  A spawn failure
        propagates here (once — the pending batch is consumed), where
        the deployer can still fall back to serial.
        """
        pending = self._pending_spawn
        if pending is None:
            return
        self._pending_spawn = None
        self._finish_spawn(pending)

    @property
    def inflight_limit(self) -> int | None:
        """Batches the runtime may leave unresolved before collecting.

        With slabs active this is the total slot count — dispatching
        past it would only downgrade batches to pickling, so the
        runtime applies backpressure instead.  ``None`` (pickle mode)
        leaves the inflight depth unbounded.
        """
        if self._slabs is None:
            return None
        return self._slabs.slots * self.replicas

    def dispatch(
        self,
        batch: np.ndarray,
        noise_seed: int | None = None,
        ship: bool = False,
        replica: int | None = None,
        fault: tuple | None = None,
    ) -> Future:
        self.finish_spawn()
        if replica is None:
            replica = self._rr
            self._rr = (self._rr + 1) % len(self._pools)
        else:
            replica %= len(self._pools)
        pool = self._pools[replica]
        slabs = self._slabs
        if slabs is not None:
            if (
                batch.nbytes > slabs.in_bytes
                or not batch.flags.c_contiguous
            ):
                telemetry.count(
                    "serve.dispatch.shm_fallback", reason="size"
                )
            else:
                key = slabs.acquire(replica)
                if key is None:
                    telemetry.count(
                        "serve.dispatch.shm_fallback", reason="slots"
                    )
                else:
                    in_ref, result_slot = slabs.stage(key, batch)
                    inner = pool.submit(
                        _pool_run,
                        (in_ref, noise_seed, ship, result_slot, fault),
                    )
                    telemetry.count("serve.dispatch.shm_batches")
                    return _ShmFuture(inner, slabs, key)
        return pool.submit(
            _pool_run, (batch, noise_seed, ship, None, fault)
        )

    def restart_replica(self, replica: int) -> float:
        """Kill and respawn one replica's worker pool in place.

        The crash/hang recovery path: SIGKILL the worker (a hung worker
        sleeps through ``shutdown(wait=False)``), retire its pool,
        reclaim its slab slots (the killed worker can no longer write
        into them), and bring up a fresh pool that re-programs the
        replica in its initializer.  Returns the measured wall seconds
        — kill + fork + one-time ``program_state``.  Raises when the
        respawn itself fails; the caller retires the replica then.
        """
        self.finish_spawn()
        replica %= len(self._pools)
        start = time.perf_counter()
        pid = self._pids[replica]
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        try:
            self._pools[replica].shutdown(
                wait=False, cancel_futures=True
            )
        except Exception:  # pragma: no cover - pool already broken
            pass
        self._pids[replica] = 0
        if self._slabs is not None:
            self._slabs.reclaim_replica(replica)
        pool = ProcessPoolExecutor(
            max_workers=1,
            initializer=_pool_init,
            initargs=(self._payload,),
        )
        try:
            pid = pool.submit(_pool_ping).result(timeout=pool_timeout_s())
            if not pid:
                raise BrokenProcessPool(
                    "respawned pool worker failed to initialise"
                )
        except BaseException:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best effort
                pass
            raise
        self._pools[replica] = pool
        self._pids[replica] = pid
        return time.perf_counter() - start

    def probe_replica(self, replica: int) -> Future:
        """Submit the drift health probe to one replica's worker."""
        self.finish_spawn()
        return self._pools[replica % len(self._pools)].submit(
            _pool_drift_probe
        )

    def reprogram_replica(self, replica: int) -> float:
        """Re-program a drifted replica in its worker (blocking);
        returns the measured worker-side wall seconds."""
        self.finish_spawn()
        pool = self._pools[replica % len(self._pools)]
        return pool.submit(_pool_reprogram).result(
            timeout=pool_timeout_s()
        )

    def grow(self, replicas: int = 1) -> float:
        """Spawn ``replicas`` more programmed workers (and slabs).

        Returns the measured wall seconds the scale-up cost: pool fork
        plus the one-time ``program_state`` in each new worker's
        initializer.
        """
        if replicas < 1:
            raise ConfigurationError("grow needs replicas >= 1")
        self.finish_spawn()
        start = time.perf_counter()
        self._spawn(replicas)
        if self._slabs is not None:
            for _ in range(replicas):
                self._slabs.add_replica()
        return time.perf_counter() - start

    def shrink(self, replicas: int = 1) -> float:
        """Retire the newest ``replicas`` worker pools.

        The caller (the runtime's ``scale_to``) must have drained every
        inflight batch first — a held slab slot on a retiring replica
        raises rather than corrupting the slab pool.
        """
        self.finish_spawn()
        if replicas >= len(self._pools):
            raise ConfigurationError("cannot shrink below one replica")
        for _ in range(replicas):
            if self._slabs is not None:
                self._slabs.remove_replica()
            self._pools.pop().shutdown(wait=False, cancel_futures=True)
            self._pids.pop()
        self._rr %= len(self._pools)
        return 0.0

    def resident_bytes(self) -> int:
        """Programmed-state RAM: one private copy per replica worker."""
        return spec_resident_bytes(self.spec) * max(1, self.replicas)

    def close(self) -> None:
        """Shut every pool down and release the slabs.

        Idempotent and exception-safe: closing twice, or closing after
        a worker crash left a pool broken, still releases every slab —
        a broken pool's shutdown can raise, and that must not leak the
        shared memory the other replicas hold.
        """
        pending = getattr(self, "_pending_spawn", None)
        if pending is not None:
            self._pending_spawn = None
            for pool in pending[0]:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover - best effort
                    pass
        for pool in self._pools:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - pool already broken
                pass
        self._pools = []
        self._pids = []
        if getattr(self, "_slabs", None) is not None:
            try:
                self._slabs.close()
            finally:
                self._slabs = None


#: Exceptions a pool spawn can die with in environments that cannot
#: host worker processes (no fork, broken pickling, sandboxed
#: semaphores, slow-start timeouts) — exactly the set ``"auto"`` mode
#: degrades to serial on, exported so deferred-spawn finishers
#: (``ServingRuntime.finish_deploy``) apply the same policy.
POOL_SPAWN_FAILURES = (
    OSError,
    AttributeError,
    TimeoutError,
    _FuturesTimeout,
    BrokenProcessPool,
    pickle.PicklingError,
)


def serial_fallback(
    spec: WorkerSpec, replicas: int, exc: BaseException
) -> SerialDispatcher:
    """Degrade a failed pool deployment to a serial dispatcher.

    The standard announcement trio — log, a
    :class:`~repro.perf.parallel.ParallelFallbackWarning`, and a
    ``serve.dispatch.fallback`` counter — then the in-process
    dispatcher with identical results.
    """
    logger.warning(
        "serve worker pool unavailable (%s: %s); dispatching "
        "serially in-process",
        type(exc).__name__,
        exc,
    )
    warnings.warn(
        f"serve worker pool unavailable ({type(exc).__name__}); "
        "dispatching serially in-process",
        ParallelFallbackWarning,
        stacklevel=3,
    )
    telemetry.count(
        "serve.dispatch.fallback", reason=type(exc).__name__
    )
    return SerialDispatcher(spec, replicas)


def make_dispatcher(
    spec: WorkerSpec,
    replicas: int,
    mode: str = "auto",
    slab_shape: tuple[int, int, int] | None = None,
    defer_spawn: bool = False,
):
    """Build the replica dispatcher for a deployment.

    ``mode="thread"`` runs replica threads over one shared programmed
    copy; ``mode="process"``/``"auto"`` try the persistent pool first,
    where ``"auto"`` degrades to serial (:func:`serial_fallback`) when
    no pool can be created while ``"process"`` propagates the failure.
    ``mode="serial"`` skips both.  A ``PRIME_DISPATCH`` environment
    override (:func:`dispatch_mode`) steers ``"auto"`` deployments
    only — explicit modes always win.  ``slab_shape`` (max_batch,
    input elems, output elems — the runtime derives it from the
    micro-batcher and the plan's widest layer) sizes the shared-memory
    payload slabs of process mode.  ``defer_spawn`` makes process-mode
    construction return with its workers still forking/programming in
    the background; the first use (or an explicit
    ``finish_spawn()``/``finish_deploy()``) awaits them.
    """
    if mode not in ("auto", "thread", "process", "serial"):
        raise ConfigurationError(
            "serve mode must be auto|thread|process|serial, got "
            f"{mode!r}"
        )
    if mode == "auto":
        override = dispatch_mode()
        if override is not None:
            mode = override
    if mode == "serial" or (mode == "auto" and replicas <= 1):
        return SerialDispatcher(spec, replicas)
    if mode == "thread":
        return ThreadDispatcher(spec, replicas)
    try:
        return ProcessDispatcher(
            spec,
            replicas,
            slab_shape=slab_shape,
            defer_spawn=defer_spawn,
        )
    except POOL_SPAWN_FAILURES as exc:
        if mode == "process":
            raise
        return serial_fallback(spec, replicas, exc)
