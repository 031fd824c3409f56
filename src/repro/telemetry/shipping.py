"""Cross-process telemetry shipping for worker fan-outs.

Dispatching work to a ``ProcessPoolExecutor`` puts every span, counter,
and histogram the worker records into a *different process's* session —
invisible to the coordinator that owns the run.  This module closes the
gap with a shipping envelope:

* the worker runs its payload under a scratch
  :class:`~repro.telemetry.TelemetrySession` (:func:`run_scoped`),
* the scratch session serializes into a picklable
  :class:`TelemetryDelta` (:func:`capture_delta`) riding back inside a
  :class:`ResultEnvelope` next to the actual result,
* the coordinator folds each delta into its own live session with
  :func:`merge_delta`, tagging the worker's spans with a per-worker
  track so the Chrome exporter renders coordinator and workers as
  separate processes.

Determinism contract: a delta is a pure function of the work executed
(span names/attrs, counter increments, histogram observations — only
timestamps are wall-clock), and :func:`merge_delta` applied in task
order performs the same arithmetic regardless of which process produced
each delta.  A fanned-out study therefore merges to the same counter
totals and histogram counts/sums as its serial run.

The study fan-out (:func:`repro.perf.parallel.parallel_map`) ships
through this envelope.  Serving replicas are threads in the
coordinator's process and record straight into the live session; the
dispatchers only use :class:`ResultEnvelope` to carry a batch's result
and execution time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.telemetry.metrics import Histogram

__all__ = [
    "TelemetryDelta",
    "ResultEnvelope",
    "capture_delta",
    "merge_delta",
    "run_scoped",
    "ship_call",
]


@dataclass
class TelemetryDelta:
    """One session's worth of telemetry, flattened for pickling.

    Spans keep their parent indices *relative to the delta* (the
    captured session always starts at index 0), so a merge only has to
    offset them by the receiving tracer's current length.
    """

    #: (name, start_ns, end_ns, depth, parent_index, attrs, track)
    spans: list[tuple] = field(default_factory=list)
    #: (name, track, ts_ns, dur_ns, attrs)
    model_events: list[tuple] = field(default_factory=list)
    #: (name, labels, value)
    counters: list[tuple] = field(default_factory=list)
    #: (name, labels, value)
    gauges: list[tuple] = field(default_factory=list)
    #: (name, labels, count, total, min, max, samples, stride)
    histograms: list[tuple] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (
            self.spans
            or self.model_events
            or self.counters
            or self.gauges
            or self.histograms
        )


@dataclass
class ResultEnvelope:
    """A worker's result plus the telemetry it recorded producing it."""

    value: object
    #: The producer: a pool worker's PID (``parallel_map`` merges
    #: first-seen workers onto stable ``worker:N`` tracks), or the
    #: index of the serving replica that ran the batch.
    worker: int = 0
    #: Wall nanoseconds spent executing the payload — always measured,
    #: even with shipping off, so per-stage latency accounting stays
    #: available whenever the *coordinator* has telemetry enabled.
    execute_ns: int = 0
    #: Telemetry recorded while executing this payload.
    telemetry: TelemetryDelta | None = None


def capture_delta(session) -> TelemetryDelta:
    """Flatten ``session`` into a picklable delta."""
    tracer = session.tracer
    with tracer.lock:
        spans = [
            (
                r.name,
                r.start_ns,
                r.end_ns if r.end_ns is not None else r.start_ns,
                r.depth,
                r.parent_index,
                dict(r.attrs),
                r.track,
            )
            for r in tracer.spans
        ]
        model_events = [
            (e.name, e.track, e.ts_ns, e.dur_ns, dict(e.attrs))
            for e in tracer.model_events
        ]
    metrics = session.metrics
    with metrics.lock:
        counters = [
            (c.name, dict(c.labels), c.value) for c in metrics.counters()
        ]
        gauges = [
            (g.name, dict(g.labels), g.value) for g in metrics.gauges()
        ]
        histograms = [
            (
                h.name,
                dict(h.labels),
                h.count,
                h.total,
                h.minimum,
                h.maximum,
                list(h.samples),
                h.sample_stride,
            )
            for h in metrics.histograms()
        ]
    return TelemetryDelta(spans, model_events, counters, gauges, histograms)


def merge_delta(
    session,
    delta: TelemetryDelta,
    track: str | None = None,
    anchor_ns: int | None = None,
) -> None:
    """Fold ``delta`` into ``session`` (the coordinator side).

    ``track`` labels the delta's spans with the producing worker's
    identity; ``anchor_ns`` re-anchors them onto the receiving
    session's timeline (the delta's earliest span lands at
    ``anchor_ns``) so worker activity appears where the coordinator
    dispatched it.  Counter adds, gauge sets (last-wins), and histogram
    merges happen in the delta's recording order — merging deltas in
    dispatch order is therefore deterministic.
    """
    tracer = session.tracer
    with tracer.lock:
        base = len(tracer.spans)
        shift = 0
        if anchor_ns is not None and delta.spans:
            shift = int(anchor_ns) - min(s[1] for s in delta.spans)
        for name, start, end, depth, parent, attrs, span_track in delta.spans:
            tracer.add_span(
                name,
                start + shift,
                end + shift,
                attrs=attrs,
                track=span_track if span_track is not None else track,
                parent_index=base + parent if parent is not None else None,
                depth=depth,
            )
        for name, ev_track, ts_ns, dur_ns, attrs in delta.model_events:
            tracer.model_event(
                name,
                dur_ns / 1e9,
                track=ev_track,
                ts_s=ts_ns / 1e9,
                **attrs,
            )
    metrics = session.metrics
    with metrics.lock:
        for name, labels, value in delta.counters:
            metrics.counter(name, **labels).add(value)
        for name, labels, value in delta.gauges:
            metrics.gauge(name, **labels).set(value)
        for name, labels, count, total, mn, mx, samples, stride in (
            delta.histograms
        ):
            hist: Histogram = metrics.histogram(name, **labels)
            hist.merge(count, total, mn, mx, samples, stride)


def run_scoped(fn, *args):
    """Run ``fn(*args)`` under a scratch session; ship what it recorded.

    Returns ``(result, delta, execute_ns)``.  The caller's session (if
    any) is swapped out for the duration, so the scratch session sees
    *exactly* the telemetry of this call — the unit of shipping — and
    the live session never double-counts work that will arrive later
    via the envelope.
    """
    from repro import telemetry

    scratch = telemetry.TelemetrySession()
    previous = telemetry.swap_session(scratch)
    start = time.perf_counter_ns()
    try:
        result = fn(*args)
    finally:
        execute_ns = time.perf_counter_ns() - start
        telemetry.swap_session(previous)
    return result, capture_delta(scratch), execute_ns


def ship_call(fn, *args) -> ResultEnvelope:
    """Worker-side entry point: run ``fn`` scoped, envelope the result."""
    result, delta, execute_ns = run_scoped(fn, *args)
    return ResultEnvelope(
        value=result,
        worker=os.getpid(),
        execute_ns=execute_ns,
        telemetry=None if delta.empty else delta,
    )
