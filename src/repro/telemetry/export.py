"""Exporters for a telemetry session.

Three views of the same data:

* :func:`chrome_trace_events` — Chrome ``trace_event`` JSON (the array
  form), loadable in Perfetto / ``chrome://tracing``.  Wall spans live
  on pid 1; each model-time track gets its own pid so the two time
  bases never share an axis.
* :func:`snapshot` — a flat JSON-serialisable dict of spans, model
  events, and metrics, for machine consumption (BENCH trajectories,
  notebooks).
* :func:`summary_table` — a human-readable digest rendered with the
  same :func:`repro.eval.reporting.render_table` the benchmark harness
  uses, routed through the ``repro.telemetry`` logger (never bare
  ``print``).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

WALL_PID = 1
MODEL_PID_BASE = 2


def chrome_trace_events(session) -> list[dict]:
    """Render ``session`` as a Chrome trace_event list (sorted by ts).

    Wall spans with no track are the coordinator and stay on
    :data:`WALL_PID`; spans carrying a track (a serving replica's
    forward, ``replica:N``) get one pid per track so each replica
    renders as its own track group.
    """
    tracer = session.tracer
    model_tracks = sorted({e.track for e in tracer.model_events})
    track_pids = {
        t: MODEL_PID_BASE + i for i, t in enumerate(model_tracks)
    }
    span_tracks = sorted(
        {r.track for r in tracer.spans if r.track is not None}
    )
    span_pids = {
        t: MODEL_PID_BASE + len(model_tracks) + j
        for j, t in enumerate(span_tracks)
    }
    events: list[dict] = []
    for record in tracer.spans:
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "pid": (
                    WALL_PID
                    if record.track is None
                    else span_pids[record.track]
                ),
                "tid": 1,
                "ts": record.start_ns / 1e3,
                "dur": record.duration_ns / 1e3,
                "args": dict(record.attrs),
            }
        )
    for event in tracer.model_events:
        events.append(
            {
                "name": event.name,
                "ph": "X",
                "pid": track_pids[event.track],
                "tid": 1,
                "ts": event.ts_ns / 1e3,
                "dur": event.dur_ns / 1e3,
                "args": dict(event.attrs),
            }
        )
    events.sort(key=lambda e: (e["pid"], e["ts"]))
    names = (
        [(WALL_PID, "wall clock (coordinator)")]
        + [
            (pid, f"model time ({track})")
            for track, pid in sorted(
                track_pids.items(), key=lambda kv: kv[1]
            )
        ]
        + [
            (pid, f"wall clock ({track})")
            for track, pid in sorted(
                span_pids.items(), key=lambda kv: kv[1]
            )
        ]
    )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": label},
        }
        for pid, label in names
    ]
    return meta + events


def write_chrome_trace(session, path: str | Path) -> Path:
    """Write the Chrome trace JSON array to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace_events(session), indent=1))
    return path


def snapshot(session) -> dict:
    """Flat dict of every span, model event, and metric."""
    tracer = session.tracer
    out = session.metrics.snapshot()
    out["spans"] = [
        {
            "name": r.name,
            "depth": r.depth,
            "parent": r.parent_index,
            "start_ns": r.start_ns,
            "duration_ns": r.duration_ns,
            "track": r.track,
            "attrs": dict(r.attrs),
        }
        for r in tracer.spans
    ]
    out["model_events"] = [
        {
            "name": e.name,
            "track": e.track,
            "ts_ns": e.ts_ns,
            "dur_ns": e.dur_ns,
            "attrs": dict(e.attrs),
        }
        for e in tracer.model_events
    ]
    return out


def write_snapshot(session, path: str | Path) -> Path:
    """Write the flat snapshot JSON to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot(session), indent=1))
    return path


def summary_table(session, top: int = 12) -> str:
    """Human-readable digest: hottest wall spans + every counter/gauge."""
    from repro.eval.reporting import render_table

    tracer = session.tracer
    by_name: dict[str, list] = {}
    for record in tracer.spans:
        by_name.setdefault(record.name, []).append(record)
    span_rows = [
        [
            name,
            len(records),
            f"{sum(r.duration_ns for r in records) / 1e6:.3f}",
        ]
        for name, records in by_name.items()
    ]
    span_rows.sort(key=lambda row: -float(row[2]))
    sections = [
        render_table(
            "telemetry: wall spans",
            ["span", "count", "total_ms"],
            span_rows[:top],
        )
    ]
    counter_rows = [
        [_qualified(c.name, c.labels), f"{c.value:g}"]
        for c in sorted(
            session.metrics.counters(), key=lambda c: (c.name, str(c.labels))
        )
    ]
    if counter_rows:
        sections.append(
            render_table(
                "telemetry: counters", ["counter", "value"], counter_rows
            )
        )
    gauge_rows = [
        [_qualified(g.name, g.labels), f"{g.value:g}"]
        for g in sorted(
            session.metrics.gauges(), key=lambda g: (g.name, str(g.labels))
        )
    ]
    if gauge_rows:
        sections.append(
            render_table("telemetry: gauges", ["gauge", "value"], gauge_rows)
        )
    hist_rows = [
        [
            _qualified(h.name, h.labels),
            h.count,
            f"{h.mean:g}",
            f"{h.minimum:g}" if h.count else "-",
            f"{h.percentile(50.0):g}" if h.count else "-",
            f"{h.percentile(99.0):g}" if h.count else "-",
            f"{h.maximum:g}" if h.count else "-",
        ]
        for h in sorted(
            session.metrics.histograms(),
            key=lambda h: (h.name, str(h.labels)),
        )
    ]
    if hist_rows:
        sections.append(
            render_table(
                "telemetry: histograms",
                ["histogram", "count", "mean", "min", "p50", "p99", "max"],
                hist_rows,
            )
        )
    return "\n\n".join(sections)


def _qualified(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def log_summary(session, logger: logging.Logger | None = None) -> str:
    """Log the summary table at INFO on the ``repro.telemetry`` logger.

    Returns the rendered table so callers can reuse it.  The package
    installs a :class:`logging.NullHandler`, so nothing is emitted
    unless the application configures logging — telemetry never prints
    on its own.
    """
    logger = logger or logging.getLogger("repro.telemetry")
    text = summary_table(session)
    logger.info("%s", text)
    return text
