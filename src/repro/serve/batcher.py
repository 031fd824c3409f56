"""Dynamic micro-batching for the serving runtime.

Single-sample requests arrive one at a time; the fused crossbar
kernels want wide matmuls.  :class:`MicroBatcher` is the queue between
the two: requests accumulate until either a full micro-batch is
available (``max_batch``, sized against the executor's streaming chunk
model so a batch always evaluates in one fused pass) or the oldest
request has waited ``max_wait_s`` (the latency knob).  A lightly
loaded server does not wait at all: the runtime's pipelined ``poll``
flushes the queue head whenever a replica is idle (see
:meth:`~repro.serve.runtime.ServingRuntime.poll`), so ``max_wait_s``
only bounds how long a partial batch waits behind busy replicas.

The batcher is deliberately synchronous: requests and batches move
only when the owner pumps it, so a serving run is a deterministic
function of the submission order and the knobs — the property the
bit-identity tests lean on.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError
from repro.telemetry.request import TraceContext, make_trace_id

__all__ = [
    "ServeRequest",
    "MicroBatcher",
    "DEFAULT_MAX_WAIT_S",
    "MAX_BATCH_CAP",
]

#: Default maximum queueing delay before a partial batch ships.  The
#: runtime's pipelined ``poll`` ships earlier, at once, whenever a
#: replica is idle; the delay applies while every replica is busy.
DEFAULT_MAX_WAIT_S = 0.002
#: Upper bound on the micro-batch size the runtime derives from the
#: executor's chunk model: beyond a point a wider matmul stops paying
#: and only adds queueing latency.
MAX_BATCH_CAP = 256


@dataclass
class ServeRequest:
    """One in-flight inference request (a single sample).

    Carries its trace context (tenant + deterministic trace id) and
    the lifecycle timestamps the runtime stamps as the request moves
    enqueue → batch-formed → dispatched → done; the per-stage latency
    accounting and the retroactive request spans are derived from them
    at collection time.
    """

    req_id: int
    x: np.ndarray
    t_enqueue: float
    tenant: str = ""
    trace_id: str = ""
    t_batched: float | None = None
    t_dispatched: float | None = None
    t_done: float | None = None
    result: np.ndarray | None = field(default=None, repr=False)
    #: Recorded shed reason when the request's micro-batch exhausted
    #: its dispatch retries under ``HealthPolicy(on_exhausted="shed")``
    #: — the request never completes (``t_done`` stays ``None``), but
    #: its loss is explicit, never silent.
    error: str | None = None

    @property
    def trace(self) -> TraceContext:
        """This request's trace context."""
        return TraceContext(
            trace_id=self.trace_id,
            tenant=self.tenant,
            arrival_s=self.t_enqueue,
        )

    @property
    def done(self) -> bool:
        return self.t_done is not None

    @property
    def latency_s(self) -> float:
        """Enqueue-to-completion latency (raises while in flight)."""
        if self.t_done is None:
            raise ConfigurationError(
                f"request {self.req_id} has not completed"
            )
        return self.t_done - self.t_enqueue


class MicroBatcher:
    """Coalesces queued single-sample requests into micro-batches.

    **Choosing ``max_batch``.**  The runtime derives its default from
    the executor's streaming chunk model
    (:meth:`~repro.core.executor.PrimeExecutor.max_chunk_samples` at
    its ``DEFAULT_CHUNK_BYTES`` budget), capped at
    :data:`MAX_BATCH_CAP` (256).  Three forces meet there:

    * *kernel width* — one micro-batch should evaluate in a single
      plan-compiled pass, so it must fit the executor's per-chunk
      working-set budget;
    * *latency* — past a few hundred samples the crossbar matmul is
      fully saturated and wider batches only add queueing delay;
    * *dispatch* — a replica thread receives the stacked batch by
      reference, so a wider batch costs no transport, only the one
      ``np.stack`` copy, and amortises the per-dispatch overhead (a
      thread handoff and a future) over more samples.
    """

    def __init__(
        self,
        max_batch: int,
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
        clock=time.perf_counter,
        tenant: str | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be >= 0")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.clock = clock
        #: Tenant (model) label; when set, every request gets a trace
        #: context and the batcher's metrics carry ``tenant=`` labels.
        self.tenant = tenant
        self._labels = {"tenant": tenant} if tenant else {}
        self._queue: deque[ServeRequest] = deque()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be batched."""
        return len(self._queue)

    def submit(self, x: np.ndarray) -> ServeRequest:
        """Enqueue one sample; returns its tracking handle.

        This is where a request's trace context is born: the id is a
        deterministic function of the tenant and the submission index,
        so two runs of the same traffic produce the same trace ids.
        """
        tenant = self.tenant or ""
        request = ServeRequest(
            req_id=self._next_id,
            x=np.asarray(x),
            t_enqueue=self.clock(),
            tenant=tenant,
            trace_id=make_trace_id(tenant or "serve", self._next_id),
        )
        self._next_id += 1
        self._queue.append(request)
        if telemetry.enabled():
            telemetry.count("serve.requests", **self._labels)
            telemetry.gauge(
                "serve.queue_depth", len(self._queue), **self._labels
            )
        return request

    def ready(self, now: float | None = None) -> bool:
        """Whether :meth:`next_batch` would ship a batch right now."""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch:
            return True
        now = self.clock() if now is None else now
        return now - self._queue[0].t_enqueue >= self.max_wait_s

    def next_batch(
        self, flush: bool = False, now: float | None = None
    ) -> list[ServeRequest] | None:
        """Pop the next micro-batch, or ``None`` if none should ship.

        A batch ships when it is full, when the oldest queued request
        has aged past ``max_wait_s``, or unconditionally with
        ``flush=True`` (end-of-stream drain, and the runtime's release
        to an idle replica).
        """
        if not self._queue:
            return None
        if not flush and not self.ready(now):
            return None
        size = min(len(self._queue), self.max_batch)
        batch = [self._queue.popleft() for _ in range(size)]
        t_batched = self.clock()
        for request in batch:
            request.t_batched = t_batched
        if telemetry.enabled():
            telemetry.count("serve.batches", **self._labels)
            telemetry.observe("serve.batch_size", size, **self._labels)
            telemetry.gauge(
                "serve.queue_depth", len(self._queue), **self._labels
            )
        return batch

    def drop_stale(
        self, deadline_s: float, now: float | None = None
    ) -> list[ServeRequest]:
        """Pop queued requests older than ``deadline_s`` and return them.

        The admission controller's deadline-shedding primitive: a
        request that has already waited past its deadline can only
        waste a replica, so the cluster loop drops it from the queue
        head before forming the next batch.  Dropped requests never
        complete (``result`` stays ``None``); each is counted under
        ``serve.shed{reason=deadline}``.
        """
        if deadline_s < 0:
            raise ConfigurationError("deadline_s must be >= 0")
        now = self.clock() if now is None else now
        dropped: list[ServeRequest] = []
        while (
            self._queue
            and now - self._queue[0].t_enqueue > deadline_s
        ):
            dropped.append(self._queue.popleft())
        if dropped and telemetry.enabled():
            telemetry.count(
                "serve.shed",
                len(dropped),
                reason="deadline",
                **self._labels,
            )
            telemetry.gauge(
                "serve.queue_depth", len(self._queue), **self._labels
            )
        return dropped

    def drain(self):
        """Yield every remaining micro-batch (flushing partials)."""
        while True:
            batch = self.next_batch(flush=True)
            if batch is None:
                return
            yield batch
