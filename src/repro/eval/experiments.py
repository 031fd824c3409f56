"""Per-figure experiment drivers.

Each ``figure*`` function regenerates the data behind one figure of the
paper's evaluation section and returns a structured result the
benchmark harness asserts against and prints.

========  ==========================================================
Figure 6  classification accuracy vs input/weight precision
Figure 8  speedup over CPU (pNPU-co, pNPU-pim-x1/x64, PRIME)
Figure 9  execution-time breakdown normalised to pNPU-co
Figure 10 energy saving over CPU
Figure 11 energy breakdown normalised to pNPU-co
Figure 12 area overhead
========  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.common import ExecutionReport
from repro.baselines.cpu import CpuModel
from repro.baselines.npu import NpuCoProcessorModel, NpuPimModel
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.errors import WorkloadError
from repro.eval.workloads import MLBENCH_ORDER, get_workload
from repro.params.area import AreaModel, DEFAULT_AREA_MODEL
from repro.params.prime import PrimeConfig, DEFAULT_PRIME_CONFIG


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values.

    Raises :class:`WorkloadError` on empty input or non-positive /
    non-finite values instead of letting ``np.log`` emit warnings and
    propagate NaN through a figure.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise WorkloadError("geometric mean of an empty sequence")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise WorkloadError(
            "geometric mean requires positive finite values, got "
            f"{arr.tolist()}"
        )
    return float(np.exp(np.mean(np.log(arr))))


@dataclass
class SystemComparison:
    """All systems' reports for every MlBench workload."""

    batch: int
    reports: dict[str, dict[str, ExecutionReport]] = field(
        default_factory=dict
    )

    def speedups_over_cpu(self, system: str) -> dict[str, float]:
        """Per-workload throughput speedup of ``system`` vs CPU."""
        return {
            wl: self.reports[wl][system].speedup_over(
                self.reports[wl]["CPU"]
            )
            for wl in self.reports
        }

    def energy_savings_over_cpu(self, system: str) -> dict[str, float]:
        """Per-workload energy-saving factor of ``system`` vs CPU."""
        return {
            wl: self.reports[wl][system].energy_saving_over(
                self.reports[wl]["CPU"]
            )
            for wl in self.reports
        }


def _workload_reports(
    name: str, batch: int, config: PrimeConfig
) -> dict[str, ExecutionReport]:
    """All systems' reports for one workload."""
    topology = get_workload(name).topology()
    plan = PrimeCompiler(config).compile(topology)
    return {
        "CPU": CpuModel().estimate(topology, batch),
        "pNPU-co": NpuCoProcessorModel().estimate(topology, batch),
        "pNPU-pim-x1": NpuPimModel(instances=1).estimate(topology, batch),
        "pNPU-pim-x64": NpuPimModel(instances=64).estimate(
            topology, batch
        ),
        "PRIME": PrimeExecutor(config).estimate(plan, batch),
    }


def run_all_systems(
    batch: int = 4096,
    config: PrimeConfig = DEFAULT_PRIME_CONFIG,
    workloads: tuple[str, ...] = MLBENCH_ORDER,
) -> SystemComparison:
    """Evaluate every workload on every system (Figs. 8-11 substrate).

    ``batch`` is large by default: the paper assumes each configured NN
    "will be executed tens of thousands of times", so steady-state
    throughput (with bank-level parallelism) is the figure of merit.
    """
    return SystemComparison(
        batch=batch,
        reports={
            name: _workload_reports(name, batch, config)
            for name in workloads
        },
    )


# ---------------------------------------------------------------------------
# Figure 8: performance speedups vs CPU
# ---------------------------------------------------------------------------


@dataclass
class Figure8Result:
    """Speedup series per system, plus geometric means."""

    batch: int
    speedups: dict[str, dict[str, float]]
    gmeans: dict[str, float]
    utilization: dict[str, tuple[float, float]]


def figure8(
    batch: int = 4096,
    config: PrimeConfig = DEFAULT_PRIME_CONFIG,
) -> Figure8Result:
    """Speedups over the CPU-only baseline (Fig. 8)."""
    comparison = run_all_systems(batch=batch, config=config)
    systems = ("pNPU-co", "pNPU-pim-x1", "pNPU-pim-x64", "PRIME")
    speedups = {
        system: comparison.speedups_over_cpu(system) for system in systems
    }
    gmeans = {
        system: geometric_mean(list(values.values()))
        for system, values in speedups.items()
    }
    utilization = {}
    for wl in comparison.reports:
        extras = comparison.reports[wl]["PRIME"].extras
        utilization[wl] = (
            extras["utilization_before"],
            extras["utilization_after"],
        )
    return Figure8Result(
        batch=batch,
        speedups=speedups,
        gmeans=gmeans,
        utilization=utilization,
    )


# ---------------------------------------------------------------------------
# Figure 9: execution-time breakdown (vs pNPU-co)
# ---------------------------------------------------------------------------


@dataclass
class Figure9Result:
    """Per-workload, per-system time split normalised to pNPU-co."""

    #: workload -> system -> {"compute+buffer": x, "memory": y} where
    #: values are normalised to the pNPU-co total (co sums to 1).
    breakdown: dict[str, dict[str, dict[str, float]]]


def figure9(config: PrimeConfig = DEFAULT_PRIME_CONFIG) -> Figure9Result:
    """Execution-time breakdown with single NPUs and a single PRIME
    bank, no bank parallelism (as the paper's Fig. 9 does)."""
    cpu_batch = 64
    co = NpuCoProcessorModel()
    pim1 = NpuPimModel(instances=1)
    compiler = PrimeCompiler(config)
    executor = PrimeExecutor(config)
    breakdown: dict[str, dict[str, dict[str, float]]] = {}
    for name in MLBENCH_ORDER:
        topology = get_workload(name).topology()
        plan = compiler.compile(topology)
        reports = {
            "pNPU-co": co.estimate(topology, cpu_batch),
            "pNPU-pim": pim1.estimate(topology, cpu_batch),
            "PRIME": executor.estimate(
                plan, batch=cpu_batch, use_bank_parallelism=False
            ),
        }
        base = reports["pNPU-co"].latency_s
        breakdown[name] = {}
        for system, rep in reports.items():
            breakdown[name][system] = {
                "compute+buffer": (rep.compute_time_s + rep.buffer_time_s)
                / base,
                "memory": rep.memory_time_s / base,
            }
    return Figure9Result(breakdown=breakdown)


# ---------------------------------------------------------------------------
# Figure 10: energy savings vs CPU
# ---------------------------------------------------------------------------


@dataclass
class Figure10Result:
    """Energy-saving series per system, plus geometric means."""

    batch: int
    savings: dict[str, dict[str, float]]
    gmeans: dict[str, float]


def figure10(
    batch: int = 4096,
    config: PrimeConfig = DEFAULT_PRIME_CONFIG,
) -> Figure10Result:
    """Energy savings over the CPU-only baseline (Fig. 10).

    pNPU-pim-x1 is omitted exactly as in the paper: its energy equals
    pNPU-pim-x64's (same work, same technology).
    """
    comparison = run_all_systems(batch=batch, config=config)
    systems = ("pNPU-co", "pNPU-pim-x64", "PRIME")
    savings = {
        system: comparison.energy_savings_over_cpu(system)
        for system in systems
    }
    gmeans = {
        system: geometric_mean(list(values.values()))
        for system, values in savings.items()
    }
    return Figure10Result(batch=batch, savings=savings, gmeans=gmeans)


# ---------------------------------------------------------------------------
# Figure 11: energy breakdown (vs pNPU-co)
# ---------------------------------------------------------------------------


@dataclass
class Figure11Result:
    """Energy split normalised to each workload's pNPU-co total."""

    breakdown: dict[str, dict[str, dict[str, float]]]

    def memory_energy_saving_pim(self) -> float:
        """Average fraction of pNPU-co's memory energy that pim saves."""
        fractions = []
        for per_system in self.breakdown.values():
            co_mem = per_system["pNPU-co"]["memory"]
            pim_mem = per_system["pNPU-pim-x64"]["memory"]
            if co_mem > 0:
                fractions.append(1.0 - pim_mem / co_mem)
        return float(np.mean(fractions))


def figure11(
    batch: int = 4096,
    config: PrimeConfig = DEFAULT_PRIME_CONFIG,
) -> Figure11Result:
    """Energy breakdown into computation / buffer / memory (Fig. 11)."""
    comparison = run_all_systems(batch=batch, config=config)
    breakdown: dict[str, dict[str, dict[str, float]]] = {}
    for name in MLBENCH_ORDER:
        reports = comparison.reports[name]
        base = reports["pNPU-co"].energy_j
        breakdown[name] = {}
        for system in ("pNPU-co", "pNPU-pim-x64", "PRIME"):
            rep = reports[system]
            breakdown[name][system] = {
                "compute": rep.compute_energy_j / base,
                "buffer": rep.buffer_energy_j / base,
                "memory": rep.memory_energy_j / base,
            }
    return Figure11Result(breakdown=breakdown)


# ---------------------------------------------------------------------------
# Figure 12: area overhead
# ---------------------------------------------------------------------------


@dataclass
class Figure12Result:
    """Area-overhead numbers of Fig. 12 / §V-D."""

    chip_overhead: float
    ff_mat_overhead: float
    mat_breakdown: dict[str, float]


def figure12(area: AreaModel = DEFAULT_AREA_MODEL) -> Figure12Result:
    """Chip-level overhead and per-mat breakdown (Fig. 12)."""
    return Figure12Result(
        chip_overhead=area.chip_overhead(),
        ff_mat_overhead=area.ff_mat_overhead,
        mat_breakdown=area.mat_breakdown(),
    )
