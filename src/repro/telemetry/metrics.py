"""Counter / gauge / histogram registry for the telemetry layer.

Metrics are identified by a name plus an optional set of string labels
(e.g. ``model.energy_nj{system=PRIME, stage=compute}``).  The registry
is a plain in-process accumulator: no background threads, no sampling,
no dependencies — reading it is always consistent with the last write.

Naming convention (see README "Observability" for the glossary):
suffix ``_ns`` for model/wall times in nanoseconds, ``_nj`` for energy
in nanojoules, bare names for event counts and ratios.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of an ascending sequence.

    The single percentile definition of the whole repo: histogram
    snapshots, the load generator's latency reports, and the cluster
    saturation reports all call this helper, so their numbers can never
    drift apart.  Returns 0.0 for an empty sequence.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[rank - 1]


#: Retained-sample budget per histogram before deterministic decimation
#: kicks in (see :meth:`Histogram.observe`).
SAMPLE_CAP = 8192


@dataclass
class Counter:
    """A monotonically increasing accumulator."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def add(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += value


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Count/sum/min/max/percentile summary of observed values.

    Percentiles come from retained samples: every observation is kept
    until :data:`SAMPLE_CAP`, after which the reservoir halves and the
    stream is decimated deterministically (every 2nd, then 4th, ...
    observation is kept).  Small recordings — every serving run in this
    repo — therefore get *exact* percentiles, huge streams approximate
    ones, and the mechanism never consumes randomness, so telemetry
    cannot perturb seeded experiments.
    """

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    samples: list[float] = field(default_factory=list, repr=False)
    sample_stride: int = 1
    _skip: int = field(default=0, repr=False)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if self._skip:
            self._skip -= 1
            return
        self.samples.append(value)
        if len(self.samples) >= SAMPLE_CAP:
            self.samples = self.samples[::2]
            self.sample_stride *= 2
        self._skip = self.sample_stride - 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile ``q`` (0-100) of the retained samples.

        Returns 0.0 for an empty histogram.
        """
        return nearest_rank(sorted(self.samples), q)

    def attainment(self, threshold: float) -> float:
        """Fraction of retained samples at or under ``threshold``.

        The SLO monitor's primitive: on an undecimated histogram
        (``sample_stride == 1``) this is the exact fraction of
        observations meeting the objective; on a decimated one it is
        the same deterministic estimate the percentiles use.  Returns
        1.0 for an empty histogram (no traffic burns no budget).
        """
        if not self.samples:
            return 1.0
        met = sum(1 for v in self.samples if v <= threshold)
        return met / len(self.samples)


class MetricsRegistry:
    """Get-or-create store of every metric recorded this session.

    A single reentrant :attr:`lock` guards registry mutation.  The
    package-level recording helpers (``telemetry.count`` / ``gauge`` /
    ``observe``) hold it around the whole get-and-update, so the
    coordinator and the replica threads recording at once cannot
    corrupt a metric or lose an increment.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict[str, object]):
        key = (cls.__name__, name, _label_key(labels))
        with self.lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(
                    name=name,
                    labels={k: str(v) for k, v in labels.items()},
                )
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- read side ------------------------------------------------------

    def counters(self) -> list[Counter]:
        return [m for m in self._metrics.values() if isinstance(m, Counter)]

    def gauges(self) -> list[Gauge]:
        return [m for m in self._metrics.values() if isinstance(m, Gauge)]

    def histograms(self) -> list[Histogram]:
        return [
            m for m in self._metrics.values() if isinstance(m, Histogram)
        ]

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter (0.0 if never written)."""
        key = ("Counter", name, _label_key(labels))
        metric = self._metrics.get(key)
        return metric.value if metric is not None else 0.0

    def counter_total(self, name: str) -> float:
        """Sum of one counter name across every label set."""
        return sum(c.value for c in self.counters() if c.name == name)

    def gauge_value(self, name: str, **labels: object) -> float | None:
        key = ("Gauge", name, _label_key(labels))
        metric = self._metrics.get(key)
        return metric.value if metric is not None else None

    def percentile(self, name: str, q: float, **labels: object) -> float:
        """Percentile ``q`` of one histogram (0.0 if never observed)."""
        key = ("Histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        return metric.percentile(q) if metric is not None else 0.0

    def snapshot(self) -> dict:
        """Flat JSON-serialisable dump of every metric."""
        return {
            "counters": [
                {"name": c.name, "labels": c.labels, "value": c.value}
                for c in self.counters()
            ],
            "gauges": [
                {"name": g.name, "labels": g.labels, "value": g.value}
                for g in self.gauges()
            ],
            "histograms": [
                {
                    "name": h.name,
                    "labels": h.labels,
                    "count": h.count,
                    "sum": h.total,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None,
                    "mean": h.mean,
                    "p50": h.percentile(50.0),
                    "p95": h.percentile(95.0),
                    "p99": h.percentile(99.0),
                }
                for h in self.histograms()
            ],
        }
