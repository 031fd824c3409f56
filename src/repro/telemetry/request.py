"""Request-scoped tracing and SLO monitoring for the serving stack.

Every request entering :meth:`repro.serve.runtime.ServingRuntime.submit`
gets a :class:`TraceContext` — a deterministic trace id, the tenant
(model) label, and its arrival timestamp.  The runtime stamps the
request's lifecycle (enqueue → batch-formed → dispatched → reply) and,
at collection time, decomposes end-to-end latency into three contiguous
stages that sum exactly to the measured latency:

* ``batcher``  — waiting in the micro-batcher queue,
* ``queue``    — dispatched but not yet executing (worker queueing,
  future resolution, coordinator collection),
* ``replica``  — executing on the replica (the worker-measured wall
  time shipped back in the result envelope).

Each stage lands in the ``serve.stage_ms{stage=,tenant=}`` histogram
and as retroactive per-request spans on the coordinator trace, so a
Chrome export shows where any individual slow request spent its time.

:class:`SLOMonitor` evaluates per-tenant latency objectives (target
percentile + threshold) against the ``serve.latency_ms{tenant=}``
histograms: rolling attainment, error-budget burn, and whether the
objective is met.  :func:`serving_report` renders both — the per-stage
breakdown and the SLO table — as text and as a flat JSON dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "STAGES",
    "TraceContext",
    "make_trace_id",
    "SLOObjective",
    "SLOStatus",
    "SLOMonitor",
    "ServingReport",
    "TenantBreakdown",
    "serving_report",
]

#: The per-request latency stages, in lifecycle order.  Their recorded
#: times sum to the request's end-to-end latency by construction.
STAGES = ("batcher", "queue", "replica")

#: Histogram names the serving runtime records under.
LATENCY_HISTOGRAM = "serve.latency_ms"
STAGE_HISTOGRAM = "serve.stage_ms"


def make_trace_id(tenant: str, seq: int) -> str:
    """The deterministic trace id of request ``seq`` of ``tenant``."""
    return f"{tenant}-{seq:08d}"


@dataclass(frozen=True)
class TraceContext:
    """Identity a request carries through the serving stack."""

    trace_id: str
    tenant: str
    #: Arrival timestamp on the batcher's clock (``time.perf_counter``).
    arrival_s: float


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SLOObjective:
    """One tenant's latency objective: percentile + threshold."""

    tenant: str
    #: Target percentile (e.g. 99.0 for a p99 objective).
    percentile: float = 99.0
    #: Latency the target percentile must stay under, in ms.
    threshold_ms: float = 10.0

    @property
    def budget(self) -> float:
        """Allowed violating fraction (1% for a p99 objective)."""
        return max(1e-9, 1.0 - self.percentile / 100.0)


@dataclass(frozen=True)
class SLOStatus:
    """Rolling evaluation of one objective against recorded traffic."""

    objective: SLOObjective
    requests: int
    #: Observed latency at the objective's percentile (ms).
    observed_ms: float
    #: Fraction of requests at or under the threshold.
    attainment: float
    #: Error-budget burn: violating fraction over allowed fraction.
    #: 1.0 means the budget is exactly spent; >1.0 means the objective
    #: is being missed.
    budget_burn: float
    met: bool

    @property
    def tenant(self) -> str:
        return self.objective.tenant


class SLOMonitor:
    """Evaluates per-tenant latency objectives from the live session.

    Works off the decimated ``serve.latency_ms{tenant=}`` histograms the
    runtime already records — no second latency store, no sampling of
    its own, so attainment is exact for runs under the histogram sample
    cap and deterministic always.
    """

    def __init__(
        self,
        objectives,
        histogram: str = LATENCY_HISTOGRAM,
    ) -> None:
        self.objectives: tuple[SLOObjective, ...] = tuple(objectives)
        self.histogram = histogram

    def status(self, session=None) -> list[SLOStatus]:
        """Evaluate every objective; order follows the constructor."""
        from repro import telemetry

        session = session if session is not None else telemetry.session()
        if session is None:
            raise RuntimeError(
                "SLOMonitor needs an active telemetry session"
            )
        out = []
        for objective in self.objectives:
            hist = session.metrics.histogram(
                self.histogram, tenant=objective.tenant
            )
            attainment = hist.attainment(objective.threshold_ms)
            observed = hist.percentile(objective.percentile)
            burn = (1.0 - attainment) / objective.budget
            out.append(
                SLOStatus(
                    objective=objective,
                    requests=hist.count,
                    observed_ms=observed,
                    attainment=attainment,
                    budget_burn=burn,
                    met=observed <= objective.threshold_ms,
                )
            )
        return out


# ----------------------------------------------------------------------
# serving report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantBreakdown:
    """Per-tenant latency decomposition over the recorded run."""

    tenant: str
    requests: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Mean milliseconds per stage (see :data:`STAGES`).
    stage_mean_ms: dict[str, float] = field(default_factory=dict)
    #: Each stage's share of mean end-to-end latency.
    stage_share: dict[str, float] = field(default_factory=dict)
    # -- open-loop saturation view (zero under closed-loop traffic) --
    #: p99.9 latency — the open-loop tail the closed-loop generator
    #: cannot observe (queues never build when clients self-limit).
    p999_ms: float = 0.0
    #: Requests submitted to the tenant's batcher (``serve.requests``),
    #: i.e. offered *and admitted* load.
    offered: int = 0
    #: Requests shed before execution, summed over reasons.
    shed: int = 0
    #: Shed counts split by reason (``queue_depth``, ``deadline``,
    #: ``failure``).
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    # -- fault-tolerance view (zero on a fault-free run) --
    #: Micro-batch dispatch retries (``serve.dispatch.retry``), summed
    #: over failure reasons.
    retries: int = 0
    #: Replica restarts (``serve.replica.restarts``), summed over
    #: failure reasons.
    restarts: int = 0
    #: Drift-triggered background reprograms
    #: (``serve.replica.reprograms``).
    reprograms: int = 0
    # -- memory view --
    #: Programmed-state RAM the tenant's dispatcher holds
    #: (``serve.replica.resident_bytes`` gauge): one weight copy in
    #: every dispatch mode, regardless of replica count.
    resident_bytes: int = 0

    @property
    def shed_rate(self) -> float:
        """Shed requests over everything offered at the admission
        gate (admitted + shed)."""
        total = self.offered + self.shed
        return self.shed / total if total > 0 else 0.0

    @property
    def coverage(self) -> float:
        """Summed stage means over mean end-to-end latency.

        1.0 means the per-stage accounting explains the whole measured
        latency; the acceptance tests assert it within 1%.
        """
        if self.mean_ms <= 0:
            return 1.0
        return sum(self.stage_mean_ms.values()) / self.mean_ms


@dataclass(frozen=True)
class ServingReport:
    """Per-stage breakdown + SLO attainment of one serving session."""

    tenants: tuple[TenantBreakdown, ...]
    slo: tuple[SLOStatus, ...] = ()

    def to_json(self) -> dict:
        """Flat JSON-serialisable dict of the whole report."""
        return {
            "schema": 1,
            "tenants": [
                {
                    "tenant": t.tenant,
                    "requests": t.requests,
                    "mean_ms": t.mean_ms,
                    "p50_ms": t.p50_ms,
                    "p95_ms": t.p95_ms,
                    "p99_ms": t.p99_ms,
                    "p999_ms": t.p999_ms,
                    "offered": t.offered,
                    "shed": t.shed,
                    "shed_rate": t.shed_rate,
                    "shed_by_reason": dict(t.shed_by_reason),
                    "retries": t.retries,
                    "restarts": t.restarts,
                    "reprograms": t.reprograms,
                    "resident_bytes": t.resident_bytes,
                    **{
                        f"{stage}_ms": t.stage_mean_ms.get(stage, 0.0)
                        for stage in STAGES
                    },
                    **{
                        f"{stage}_share": t.stage_share.get(stage, 0.0)
                        for stage in STAGES
                    },
                    "coverage": t.coverage,
                }
                for t in self.tenants
            ],
            "slo": [
                {
                    "tenant": s.tenant,
                    "percentile": s.objective.percentile,
                    "threshold_ms": s.objective.threshold_ms,
                    "requests": s.requests,
                    "observed_ms": s.observed_ms,
                    "attainment": s.attainment,
                    "budget_burn": s.budget_burn,
                    "met": s.met,
                }
                for s in self.slo
            ],
        }

    def text(self) -> str:
        """Human-readable tables (same renderer as the benchmarks)."""
        from repro.eval.reporting import render_table

        rows = [
            [
                t.tenant,
                t.requests,
                f"{t.mean_ms:.3f}",
                f"{t.p50_ms:.3f}",
                f"{t.p99_ms:.3f}",
            ]
            + [
                f"{t.stage_mean_ms.get(stage, 0.0):.3f}"
                f" ({t.stage_share.get(stage, 0.0):.0%})"
                for stage in STAGES
            ]
            + [f"{t.coverage:.1%}"]
            for t in self.tenants
        ]
        sections = [
            render_table(
                "serving: per-stage latency breakdown (ms)",
                [
                    "tenant",
                    "requests",
                    "mean",
                    "p50",
                    "p99",
                    "batcher",
                    "queue",
                    "replica",
                    "coverage",
                ],
                rows,
            )
        ]
        if self.slo:
            slo_rows = [
                [
                    s.tenant,
                    f"p{s.objective.percentile:g}",
                    f"{s.objective.threshold_ms:g}",
                    s.requests,
                    f"{s.observed_ms:.3f}",
                    f"{s.attainment:.2%}",
                    f"{s.budget_burn:.2f}x",
                    "MET" if s.met else "MISS",
                ]
                for s in self.slo
            ]
            sections.append(
                render_table(
                    "serving: SLO attainment",
                    [
                        "tenant",
                        "objective",
                        "threshold_ms",
                        "requests",
                        "observed_ms",
                        "attainment",
                        "budget_burn",
                        "status",
                    ],
                    slo_rows,
                )
            )
        return "\n\n".join(sections)


def serving_report(
    session=None, slo: SLOMonitor | None = None
) -> ServingReport:
    """Build the per-tenant serving report from the active session.

    Tenants are discovered from the ``serve.latency_ms`` histograms'
    ``tenant`` labels; pass an :class:`SLOMonitor` to append attainment
    rows.
    """
    from repro import telemetry

    session = session if session is not None else telemetry.session()
    if session is None:
        raise RuntimeError(
            "serving_report needs an active telemetry session; call "
            "repro.telemetry.enable() or set PRIME_TELEMETRY=1"
        )
    metrics = session.metrics
    tenants = sorted(
        {
            h.labels["tenant"]
            for h in metrics.histograms()
            if h.name == LATENCY_HISTOGRAM and "tenant" in h.labels
        }
    )
    breakdowns = []
    for tenant in tenants:
        latency = metrics.histogram(LATENCY_HISTOGRAM, tenant=tenant)
        stage_mean = {}
        stage_share = {}
        for stage in STAGES:
            hist = metrics.histogram(
                STAGE_HISTOGRAM, stage=stage, tenant=tenant
            )
            stage_mean[stage] = hist.mean
            stage_share[stage] = (
                hist.mean / latency.mean if latency.mean > 0 else 0.0
            )
        shed_by_reason = {
            str(c.labels.get("reason", "")): int(c.value)
            for c in metrics.counters()
            if c.name == "serve.shed"
            and c.labels.get("tenant") == tenant
        }

        def _counter_sum(name: str) -> int:
            # Sum over extra labels (e.g. ``reason=``) for this tenant.
            return int(
                sum(
                    c.value
                    for c in metrics.counters()
                    if c.name == name
                    and c.labels.get("tenant") == tenant
                )
            )

        breakdowns.append(
            TenantBreakdown(
                tenant=tenant,
                requests=latency.count,
                mean_ms=latency.mean,
                p50_ms=latency.percentile(50.0),
                p95_ms=latency.percentile(95.0),
                p99_ms=latency.percentile(99.0),
                p999_ms=latency.percentile(99.9),
                offered=int(
                    metrics.counter_value("serve.requests", tenant=tenant)
                ),
                shed=sum(shed_by_reason.values()),
                shed_by_reason=shed_by_reason,
                retries=_counter_sum("serve.dispatch.retry"),
                restarts=_counter_sum("serve.replica.restarts"),
                reprograms=_counter_sum("serve.replica.reprograms"),
                resident_bytes=int(
                    metrics.gauge_value(
                        "serve.replica.resident_bytes", tenant=tenant
                    )
                    or 0
                ),
                stage_mean_ms=stage_mean,
                stage_share=stage_share,
            )
        )
    statuses = tuple(slo.status(session)) if slo is not None else ()
    return ServingReport(tenants=tuple(breakdowns), slo=statuses)
