"""Zero-dependency observability for the PRIME reproduction.

The package provides one process-wide telemetry session made of a span
tracer (:mod:`repro.telemetry.trace`) and a metrics registry
(:mod:`repro.telemetry.metrics`), plus exporters
(:mod:`repro.telemetry.export`) for Chrome ``trace_event`` JSON, flat
JSON snapshots, and a human-readable summary table.

**Disabled by default, near-zero overhead.**  Every recording function
first checks a module-level session pointer; while it is ``None`` (the
default) the functions return immediately and :func:`span` hands out a
shared no-op span, so instrumented hot paths pay one attribute load
and one ``is None`` test.  Enable explicitly::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("my.phase", detail=42):
        ...
    telemetry.write_chrome_trace("trace.json")

or set ``PRIME_TELEMETRY=1`` in the environment before import.

Instrumented layers and the metric-name glossary are documented in
README.md ("Observability").
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.telemetry.trace import (
    ModelEvent,
    NullSpan,
    NULL_SPAN,
    Span,
    SpanRecord,
    Tracer,
)
from repro.telemetry import export as _export

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "nearest_rank",
    "ModelEvent",
    "NullSpan",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "Tracer",
    "TelemetrySession",
    "enable",
    "disable",
    "enabled",
    "session",
    "swap_session",
    "span",
    "model_event",
    "count",
    "counter_value",
    "counter_total",
    "gauge",
    "gauge_value",
    "observe",
    "percentile",
    "snapshot",
    "chrome_trace",
    "write_chrome_trace",
    "write_snapshot",
    "summary",
    "log_summary",
    # request tracing + SLO monitoring (repro.telemetry.request)
    "TraceContext",
    "make_trace_id",
    "SLOObjective",
    "SLOStatus",
    "SLOMonitor",
    "ServingReport",
    "serving_report",
]


class TelemetrySession:
    """One tracer + one metrics registry, recording together."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


#: The active session; ``None`` keeps every hook on its no-op fast path.
_SESSION: TelemetrySession | None = None


def enable(fresh: bool = True) -> TelemetrySession:
    """Turn telemetry on; returns the active session.

    ``fresh=True`` (default) starts a new empty session; ``fresh=False``
    resumes the previous one if any survived a :func:`disable`.
    """
    global _SESSION
    if fresh or _SESSION is None:
        _SESSION = TelemetrySession()
    return _SESSION


def disable() -> None:
    """Turn telemetry off; recorded data is discarded."""
    global _SESSION
    _SESSION = None


def enabled() -> bool:
    """Whether a session is currently recording."""
    return _SESSION is not None


def session() -> TelemetrySession | None:
    """The active session, or ``None`` while disabled."""
    return _SESSION


def swap_session(
    new: TelemetrySession | None,
) -> TelemetrySession | None:
    """Install ``new`` as the active session; return the previous one.

    Swapping in ``None`` pauses recording without discarding the
    session, and swapping the returned session back in resumes it —
    how a caller keeps work it does not want measured out of a trace.
    """
    global _SESSION
    previous = _SESSION
    _SESSION = new
    return previous


# ----------------------------------------------------------------------
# recording fast paths (no-ops while disabled)
# ----------------------------------------------------------------------


def span(name: str, **attrs: object):
    """Open a (nested) wall-clock span; use as a context manager."""
    s = _SESSION
    if s is None:
        return NULL_SPAN
    return s.tracer.span(name, **attrs)


def model_event(
    name: str,
    dur_s: float,
    track: str = "model",
    **attrs: object,
) -> None:
    """Record an analytical-model interval (see :class:`Tracer`)."""
    s = _SESSION
    if s is None:
        return
    s.tracer.model_event(name, dur_s, track=track, **attrs)


def count(name: str, value: float = 1.0, **labels: object) -> None:
    """Increment counter ``name`` (with optional labels)."""
    s = _SESSION
    if s is None:
        return
    with s.metrics.lock:
        s.metrics.counter(name, **labels).add(value)


def gauge(name: str, value: float, **labels: object) -> None:
    """Set gauge ``name`` to ``value``."""
    s = _SESSION
    if s is None:
        return
    with s.metrics.lock:
        s.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: object) -> None:
    """Record ``value`` into histogram ``name``."""
    s = _SESSION
    if s is None:
        return
    with s.metrics.lock:
        s.metrics.histogram(name, **labels).observe(value)


# ----------------------------------------------------------------------
# read side / exporters (raise while disabled — there is nothing to read)
# ----------------------------------------------------------------------


def _require() -> TelemetrySession:
    if _SESSION is None:
        raise RuntimeError(
            "telemetry is disabled; call repro.telemetry.enable() or set "
            "PRIME_TELEMETRY=1 before running"
        )
    return _SESSION


def counter_value(name: str, **labels: object) -> float:
    """Current value of one counter (0.0 if never written)."""
    return _require().metrics.counter_value(name, **labels)


def counter_total(name: str) -> float:
    """Sum of one counter name across every label set."""
    return _require().metrics.counter_total(name)


def gauge_value(name: str, **labels: object) -> float | None:
    """Current value of one gauge, or ``None`` if never set."""
    return _require().metrics.gauge_value(name, **labels)


def percentile(name: str, q: float, **labels: object) -> float:
    """Percentile ``q`` (0-100) of one histogram (0.0 if never observed)."""
    return _require().metrics.percentile(name, q, **labels)


def snapshot() -> dict:
    """Flat JSON-serialisable dump of the active session."""
    return _export.snapshot(_require())


def chrome_trace() -> list[dict]:
    """Chrome ``trace_event`` list for the active session."""
    return _export.chrome_trace_events(_require())


def write_chrome_trace(path: str | Path) -> Path:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    return _export.write_chrome_trace(_require(), path)


def write_snapshot(path: str | Path) -> Path:
    """Write the flat snapshot JSON to ``path``; returns the path."""
    return _export.write_snapshot(_require(), path)


def summary(top: int = 12) -> str:
    """Human-readable summary table of the active session."""
    return _export.summary_table(_require(), top=top)


def log_summary(logger: logging.Logger | None = None) -> str:
    """Log the summary at INFO via the ``repro.telemetry`` logger."""
    return _export.log_summary(_require(), logger=logger)


# Re-exports; imported late so the submodule can refer back to the
# package-level session helpers at call time without a cycle.
from repro.telemetry.request import (  # noqa: E402
    SLOMonitor,
    SLOObjective,
    SLOStatus,
    ServingReport,
    TraceContext,
    make_trace_id,
    serving_report,
)


if os.environ.get("PRIME_TELEMETRY", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
):
    enable()
