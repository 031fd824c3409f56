"""The span tracer behind ``repro.telemetry``.

Two kinds of events share one trace:

* **wall spans** — nested context managers timed with
  :func:`time.perf_counter_ns`; they show where the *simulator* spends
  real time (compile, program, functional run, ...);
* **model events** — intervals on a virtual *model-time* timeline with
  explicit start/duration taken from the analytical cost model; they
  show where the *modelled hardware* spends time and energy, and are
  the second, independent accounting the tests cross-validate against
  :meth:`repro.core.executor.PrimeExecutor.estimate`.

Both export to Chrome ``trace_event`` JSON (see
:mod:`repro.telemetry.export`); wall spans and each model track land on
separate pids so Perfetto renders them as separate processes.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One completed (or still-open) wall-clock span."""

    name: str
    index: int
    depth: int
    parent_index: int | None
    start_ns: int
    end_ns: int | None = None
    attrs: dict = field(default_factory=dict)
    #: Execution track the span belongs to.  ``None`` is the local
    #: (coordinator) wall track; a serving replica's forward records on
    #: ``replica:N`` (:meth:`Tracer.on_track`), so the Chrome exporter
    #: renders each replica as its own process.
    track: str | None = None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns


@dataclass
class ModelEvent:
    """One interval on a virtual model-time track."""

    name: str
    track: str
    ts_ns: float
    dur_ns: float
    attrs: dict = field(default_factory=dict)


class Span:
    """Active handle for a wall span; use as a context manager."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set(self, **attrs: object) -> "Span":
        """Attach attributes to the span; returns self for chaining."""
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end_span(self)
        return False


class NullSpan:
    """The do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs: object) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Collects wall spans (with nesting) and model events in order.

    All mutating entry points hold :attr:`lock` (reentrant), so the
    coordinator and the replica threads recording at once cannot
    corrupt the span list or the open-span stack.
    """

    def __init__(self) -> None:
        self.origin_ns = time.perf_counter_ns()
        self.lock = threading.RLock()
        self.spans: list[SpanRecord] = []
        self.model_events: list[ModelEvent] = []
        # The open-span stack and the track label are thread-local:
        # thread replicas record their own span nests into the shared
        # span list without a replica's ``end_span`` unwinding the
        # coordinator's open spans.
        self._tls = threading.local()
        #: Per-track cursor (ns) so callers can append model events
        #: sequentially without tracking their own time base.
        self._model_cursors: dict[str, float] = {}

    @property
    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def on_track(self, track: str | None):
        """Put every span this thread opens inside the block on
        ``track`` (restoring the previous track on exit)."""
        previous = getattr(self._tls, "track", None)
        self._tls.track = track
        try:
            yield
        finally:
            self._tls.track = previous

    def to_session_ns(self, t_s: float) -> int:
        """Convert a ``time.perf_counter()`` reading (seconds) to this
        tracer's session-relative nanoseconds."""
        return int(t_s * 1e9) - self.origin_ns

    # -- wall spans ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        with self.lock:
            parent = self._stack[-1] if self._stack else None
            record = SpanRecord(
                name=name,
                index=len(self.spans),
                depth=len(self._stack),
                parent_index=parent.index if parent else None,
                start_ns=time.perf_counter_ns() - self.origin_ns,
                attrs=dict(attrs),
                track=getattr(self._tls, "track", None),
            )
            self.spans.append(record)
            self._stack.append(record)
            return Span(self, record)

    def end_span(self, span: Span) -> None:
        with self.lock:
            span.record.end_ns = time.perf_counter_ns() - self.origin_ns
            # Unwind to (and including) this record even if an inner
            # span leaked open — exceptions must not corrupt the stack.
            while self._stack:
                top = self._stack.pop()
                if top is span.record:
                    break

    def add_span(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        attrs: dict | None = None,
        parent_index: int | None = None,
        depth: int = 0,
    ) -> SpanRecord:
        """Append an already-completed span with explicit coordinates.

        This is the retroactive entry point: request lifecycle spans
        are emitted at collection time from recorded timestamps, on the
        coordinator's track.  It never touches the open-span stack.
        """
        with self.lock:
            record = SpanRecord(
                name=name,
                index=len(self.spans),
                depth=depth,
                parent_index=parent_index,
                start_ns=int(start_ns),
                end_ns=int(end_ns),
                attrs=dict(attrs or {}),
            )
            self.spans.append(record)
            return record

    @property
    def depth(self) -> int:
        """Current nesting depth of open spans."""
        return len(self._stack)

    # -- model events ----------------------------------------------------

    def model_event(
        self,
        name: str,
        dur_s: float,
        track: str = "model",
        **attrs: object,
    ) -> ModelEvent:
        """Append an interval of ``dur_s`` model-seconds to ``track``.

        The event starts where the track's previous event ended,
        building a gap-free timeline whose total extent equals the
        summed durations.
        """
        with self.lock:
            ts_ns = self._model_cursors.get(track, 0.0)
            event = ModelEvent(
                name=name,
                track=track,
                ts_ns=ts_ns,
                dur_ns=dur_s * 1e9,
                attrs=dict(attrs),
            )
            self.model_events.append(event)
            self._model_cursors[track] = ts_ns + event.dur_ns
            return event
