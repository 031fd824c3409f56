"""Deterministic process-parallel experiment runner.

:func:`parallel_map` is the single fan-out primitive of the eval
stack: an order-preserving map over a task list, executed on a
``ProcessPoolExecutor`` with chunked submission, or serially when
parallelism is off (``PRIME_WORKERS`` unset or ``1``) or no pool can
be created (sandboxes without fork, nested pools).

Correctness contract: tasks must be *pure functions of their
arguments*.  Anything stochastic takes an explicit per-task seed
(:func:`task_seed` derives independent ones deterministically), so a
parallel run is bit-identical to the serial path regardless of worker
count or scheduling — the property the ``tests/perf`` suite asserts
for the precision grid and the ENOB sweep.

Shared read-only state (e.g. a trained network) travels once per
worker through ``initializer``/``initargs`` rather than once per task;
the serial path calls the initializer in-process so both paths see the
same state.
"""

from __future__ import annotations

import hashlib
import logging
import math
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence

from repro import telemetry
from repro.errors import ConfigurationError
from repro.knobs import env_knob
from repro.telemetry.shipping import merge_delta, ship_call

logger = logging.getLogger("repro.perf")


class ParallelFallbackWarning(RuntimeWarning):
    """Raised (once per process) when a requested worker pool could not
    be created and :func:`parallel_map` ran serially instead.

    Structured so callers/benchmarks can filter on the category; the
    degraded parallelism also shows up as the
    ``perf.parallel.fallback`` telemetry counter, labelled with the
    exception type that broke the pool.
    """

#: Target chunks per worker: small enough to balance uneven tasks,
#: large enough to amortise pickling.
_CHUNKS_PER_WORKER = 4


def worker_count(workers: int | None = None) -> int:
    """Resolve the effective worker count.

    An explicit ``workers`` argument wins; otherwise ``PRIME_WORKERS``
    decides, and an unset environment means serial (1) — experiments
    opt into fan-out rather than surprising test suites with process
    pools.  An unparsable ``PRIME_WORKERS`` logs a warning and falls
    back to serial instead of failing a run mid-sweep over a typo.
    """
    if workers is None:
        workers = env_knob(
            "PRIME_WORKERS", int, 1, logger, "an integer", "running serially"
        )
    return max(1, int(workers))


def chunk_size(n_tasks: int, workers: int) -> int:
    """Chunked-submission size for ``n_tasks`` over ``workers``."""
    if n_tasks < 1 or workers < 1:
        raise ConfigurationError("task and worker counts must be positive")
    return max(1, math.ceil(n_tasks / (workers * _CHUNKS_PER_WORKER)))


def task_seed(base_seed: int, *key: object) -> int:
    """A deterministic, well-separated seed for one task.

    Hashes ``(base_seed, *key)`` so per-task streams are independent of
    task order and worker assignment — the same task always gets the
    same seed, serially or in any pool.
    """
    blob = repr((int(base_seed),) + key).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


def _serial_map(
    fn: Callable,
    tasks: Sequence,
    initializer: Callable | None,
    initargs: tuple,
) -> list:
    if initializer is not None:
        initializer(*initargs)
    return [fn(task) for task in tasks]


def _shipped_call(payload: tuple):
    """Pool target wrapping one task in a telemetry envelope.

    Module-level (picklable) single-arg callable; the task function
    rides inside the payload so one wrapper serves every fan-out.
    """
    fn, task = payload
    return ship_call(fn, task)


def parallel_map(
    fn: Callable,
    tasks: Iterable,
    workers: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    chunksize: int | None = None,
) -> list:
    """Map ``fn`` over ``tasks``, possibly across worker processes.

    ``fn``, ``initializer``, and every task must be picklable
    (module-level functions / plain data).  Results come back in task
    order.  Any failure to *run the pool* (fork unavailable, broken
    workers, unpicklable payloads) falls back to the serial path; an
    exception raised by ``fn`` itself propagates unchanged.
    """
    tasks = list(tasks)
    n = min(worker_count(workers), max(len(tasks), 1))
    if n <= 1 or len(tasks) <= 1:
        return _serial_map(fn, tasks, initializer, initargs)
    cs = chunksize if chunksize is not None else chunk_size(len(tasks), n)
    ship = telemetry.enabled()
    try:
        with telemetry.span(
            "perf.parallel_map", tasks=len(tasks), workers=n, chunksize=cs
        ):
            start_s = time.perf_counter()
            with ProcessPoolExecutor(
                max_workers=n, initializer=initializer, initargs=initargs
            ) as pool:
                if ship:
                    # Same shipping envelope the serving dispatchers
                    # use: workers record under a scratch session, the
                    # coordinator merges the deltas in task order with
                    # stable per-worker tracks.
                    envelopes = list(
                        pool.map(
                            _shipped_call,
                            [(fn, task) for task in tasks],
                            chunksize=cs,
                        )
                    )
                    results = [e.value for e in envelopes]
                else:
                    results = list(pool.map(fn, tasks, chunksize=cs))
        session = telemetry.session()
        if ship and session is not None:
            worker_tracks: dict[int, int] = {}
            anchor = session.tracer.to_session_ns(start_s)
            for envelope in envelopes:
                if envelope.telemetry is None:
                    continue
                index = worker_tracks.setdefault(
                    envelope.worker, len(worker_tracks)
                )
                merge_delta(
                    session,
                    envelope.telemetry,
                    track=f"worker:{index}",
                    anchor_ns=anchor,
                )
        telemetry.count("perf.parallel.tasks", len(tasks))
        telemetry.gauge("perf.parallel.workers", n)
        return results
    except (
        OSError,
        AttributeError,
        BrokenProcessPool,
        pickle.PicklingError,
    ) as exc:
        logger.warning(
            "process pool unavailable (%s: %s); running %d tasks "
            "serially",
            type(exc).__name__,
            exc,
            len(tasks),
        )
        # The default warning filter dedupes on (message, category,
        # location), so keeping the message stable means a sweep that
        # falls back on every call surfaces a single warning.
        warnings.warn(
            f"process pool unavailable ({type(exc).__name__}); "
            "parallel_map running serially",
            ParallelFallbackWarning,
            stacklevel=2,
        )
        telemetry.count(
            "perf.parallel.fallback", reason=type(exc).__name__
        )
        return _serial_map(fn, tasks, initializer, initargs)
