"""Accuracy under yield loss: stuck-at faults with resilience off vs on.

The study closes PRIME's fault loop end to end: stuck-at-HRS/LRS cells
are injected at a swept rate into every crossbar array (via the
``fault_rate_*`` config knobs), the workload runs functionally once
with the resilience layer disabled (faults silently corrupt the analog
dot products) and once with it enabled (program-and-verify retries,
differential compensation, column sparing, tile remapping, and
zero-masking), and the classification accuracies are compared.

Protocol notes:

* The device is noise-free by default (``programming_sigma = 0``,
  ``read_noise_sigma = 0``) so the sweep isolates the stuck-at effect;
  at rate 0 the two curves are therefore bit-identical — the verify
  pass is a no-op on clean arrays.
* Off/on points at the same fault rate share one seed, derived from
  the rate alone by :func:`repro.perf.parallel.task_seed`, so both see
  the *same* fault maps (the comparison is paired, not sampled) and no
  point depends on the other rates swept or on their order.
* The trained reference network comes from the
  :mod:`repro.perf.cache` artifact cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.errors import WorkloadError
from repro.eval.reference import train_reference_network
from repro.eval.workloads import get_workload
from repro.nn.network import Sequential
from repro.nn.topology import NetworkTopology
from repro.params.crossbar import CrossbarParams
from repro.params.prime import PrimeConfig
from repro.params.reram import ReRAMDeviceParams, PT_TIO2_DEVICE
from repro.perf.parallel import task_seed
from repro.resilience import DEFAULT_RESILIENCE, ResiliencePolicy


@dataclass
class YieldPoint:
    """One (fault rate, resilience mode) measurement."""

    fault_rate: float
    resilient: bool
    accuracy: float
    #: ``DegradationSummary.as_dict()`` of the run (resilient points
    #: only; the open-loop path reports nothing).
    degradation: dict | None = None


@dataclass
class YieldStudyResult:
    """Accuracy-vs-fault-rate curves with resilience off and on."""

    workload: str
    float_accuracy: float
    samples: int
    points: list[YieldPoint] = field(default_factory=list)

    def accuracy(self, fault_rate: float, resilient: bool) -> float:
        for p in self.points:
            if p.fault_rate == fault_rate and p.resilient == resilient:
                return p.accuracy
        raise WorkloadError(
            f"no yield point at rate {fault_rate} "
            f"(resilient={resilient})"
        )

    def curve(self, resilient: bool) -> dict[float, float]:
        """fault_rate -> accuracy for one mode, sorted by rate."""
        return {
            p.fault_rate: p.accuracy
            for p in sorted(self.points, key=lambda p: p.fault_rate)
            if p.resilient == resilient
        }

    @property
    def clean_accuracy(self) -> float:
        """Fault-free quantised accuracy (the rate-0 point when swept,
        the float reference otherwise)."""
        for p in self.points:
            if p.fault_rate == 0.0:
                return p.accuracy
        return self.float_accuracy

    def recovery(self, fault_rate: float) -> float:
        """Fraction of the fault-free accuracy the resilient curve
        retains at ``fault_rate``."""
        return self.accuracy(fault_rate, True) / self.clean_accuracy


#: Resilience configuration of the "on" curve: verified writes plus a
#: modest sparing budget per pair/bank.
DEFAULT_ON_POLICY = ResiliencePolicy(
    verify_writes=True,
    max_retries=3,
    spare_columns=8,
    spare_pairs_per_bank=2,
)

#: Noise-free device so the sweep isolates stuck-at faults.
NOISE_FREE_DEVICE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)


def _yield_point(
    net: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    topology: NetworkTopology,
    policy: ResiliencePolicy,
    device: ReRAMDeviceParams,
    rate: float,
    resilient: bool,
    seed: int,
) -> YieldPoint:
    """Evaluate one (fault rate, resilience mode) point on ``x``."""
    xbar = CrossbarParams(
        device=device,
        fault_rate_hrs=rate / 2.0,
        fault_rate_lrs=rate / 2.0,
    )
    config = PrimeConfig(
        crossbar=xbar,
        resilience=policy if resilient else DEFAULT_RESILIENCE,
    )
    plan = PrimeCompiler(config).compile(topology)
    executor = PrimeExecutor(config)
    logits = executor.run_functional(
        net, plan, x, rng=np.random.default_rng(seed)
    )
    accuracy = float(np.mean(np.argmax(logits, axis=-1) == y))
    summary = executor.last_degradation
    return YieldPoint(
        fault_rate=rate,
        resilient=resilient,
        accuracy=accuracy,
        degradation=summary.as_dict() if summary is not None else None,
    )


def yield_study(
    workload: str = "MLP-S",
    fault_rates: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02),
    policy: ResiliencePolicy | None = None,
    samples: int = 256,
    n_train: int = 5000,
    n_test: int = 600,
    epochs: int = 20,
    seed: int = 7,
    device: ReRAMDeviceParams | None = None,
    reference: tuple[Sequential, np.ndarray, np.ndarray] | None = None,
    topology: NetworkTopology | None = None,
    use_cache: bool = True,
) -> YieldStudyResult:
    """Sweep stuck-at fault rates with resilience off vs on.

    Defaults target MLP-S; pass ``workload="MLP-M"`` (or any functional
    MlBench workload) for the larger sweep.  ``policy`` configures the
    "on" curve (default :data:`DEFAULT_ON_POLICY`); the "off" curve
    always runs the open-loop path.  ``reference`` injects a
    pre-trained ``(net, x_test, y_test)`` triple and ``topology`` a
    matching topology override — together they let tests sweep a tiny
    seeded network without touching the artifact cache.
    """
    if policy is None:
        policy = DEFAULT_ON_POLICY
    if not policy.verify_writes:
        raise WorkloadError(
            "the yield study's on-curve policy must set verify_writes"
        )
    if device is None:
        device = NOISE_FREE_DEVICE
    if topology is None:
        topology = get_workload(workload).topology()
    if reference is not None:
        net, x_test, y_test = reference
    elif use_cache:
        from repro.perf.cache import reference_network

        net, x_test, y_test = reference_network(
            workload, n_train=n_train, n_test=n_test, epochs=epochs,
            seed=seed,
        )
    else:
        net, x_test, y_test = train_reference_network(
            workload, n_train=n_train, n_test=n_test, epochs=epochs,
            seed=seed,
        )
    samples = min(samples, len(y_test))
    x, y = x_test[:samples], y_test[:samples]
    result = YieldStudyResult(
        workload=workload,
        float_accuracy=net.accuracy(x, y),
        samples=samples,
    )
    with telemetry.span(
        "eval.yield_study", workload=workload, points=2 * len(fault_rates)
    ):
        for rate in fault_rates:
            rate = float(rate)
            # Off/on at one rate share a seed so they face identical
            # fault maps.
            point_seed = task_seed(seed, "yield", rate)
            for resilient in (False, True):
                result.points.append(
                    _yield_point(
                        net, x, y, topology, policy, device,
                        rate, resilient, point_seed,
                    )
                )
    return result
