"""Chaos goodput benchmark: serving through faults (the PR-9 gate).

Three paced two-replica deployments of the same tiny MLP serve the
same 400-request traffic:

* ``fault-free`` — the baseline goodput;
* ``kill``       — a seeded :class:`FaultPlan` kills one of the two
  replica threads mid-run (an injected
  :class:`~repro.serve.health.WorkerCrash`);
* ``drift``      — seeded conductance drift silently degrades the
  shared programmed copy until the periodic health probe schedules
  background reprogramming.

Acceptance gates:

* the runtime recovers — the dead replica is restarted by cooperative
  cancellation (>= 1 restart with measured cost) and the run completes
  without deadlock;
* goodput under the kill stays >= 0.8x fault-free;
* zero admitted requests are silently lost: every request either
  completes or is shed with a recorded reason;
* retried micro-batches are bit-identical — the whole served output
  equals ``ServingRuntime.reference`` despite the crash.

The run also writes ``chaos_serving_report.json`` (per-scenario
latency breakdown + retries/restarts/reprograms + the goodput table)
for the CI artifact, and prints the goodput table EXPERIMENTS.md
records.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.params.memory import MemoryOrganization
from repro.params.prime import PrimeConfig
from repro.params.reram import PT_TIO2_DEVICE
from repro.resilience import ResiliencePolicy
from repro.serve import ServeConfig, ServingRuntime
from repro.serve.health import FaultEvent, FaultPlan, HealthPolicy
from repro.telemetry.request import serving_report

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

#: Requests per scenario.
REQUESTS = 400
#: Micro-batch size -> 50 paced batches per scenario.
MAX_BATCH = 8
#: Emulated device service time per micro-batch (s).
PACE_S = 0.05
#: Goodput ratio the faulted runs must hold against fault-free.
GOODPUT_FLOOR = 0.8

NOISE_FREE = dataclasses.replace(
    PT_TIO2_DEVICE, programming_sigma=0.0, read_noise_sigma=0.0
)
SMALL_ORG = MemoryOrganization(
    subarrays_per_bank=8,
    mats_per_subarray=16,
    mat_rows=32,
    mat_cols=32,
)
TOPOLOGY = parse_topology("serve-tiny", "24-20-6")

#: The fault schedules, keyed by scenario (= tenant label).  Both
#: faults round-robin onto a replica with traffic still behind it; the
#: drift lands at batch 2 so the first periodic probe round (every 8
#: dispatches) queues behind the corrupted batch and detects it.
PLANS = {
    "fault-free": (),
    "kill": (FaultEvent(batch_index=10, kind="kill"),),
    "drift": (
        FaultEvent(batch_index=2, kind="drift", magnitude=0.5, seed=3),
    ),
}

#: scenario -> measured run record (memoised across the gate tests).
_RUNS: dict[str, dict] = {}


def _config() -> PrimeConfig:
    return PrimeConfig(
        crossbar=CrossbarParams(
            rows=32, cols=32, sense_amps=8, device=NOISE_FREE
        ),
        organization=SMALL_ORG,
        resilience=ResiliencePolicy(),
    )


def _scenario(name: str) -> dict:
    """One measured chaos run; memoised per scenario."""
    if name in _RUNS:
        return _RUNS[name]
    if not telemetry.enabled():
        telemetry.enable()
    network = TOPOLOGY.build(rng=np.random.default_rng(2))
    calibration = np.random.default_rng(11).standard_normal((64, 24))
    traffic = np.random.default_rng(5).standard_normal((REQUESTS, 24))
    health = HealthPolicy(
        batch_timeout_s=60.0,
        backoff_base_s=0.0,
        on_exhausted="shed",
        probe_interval_batches=8,
        drift_threshold=0.01,
    )
    runtime = ServingRuntime(
        network,
        TOPOLOGY,
        config=_config(),
        serve_config=ServeConfig(
            mode="thread",
            max_batch=MAX_BATCH,
            pace_batch_s=PACE_S,
            tenant=name,
        ),
        calibration=calibration,
        max_replicas=2,
        health=health,
        fault_plan=FaultPlan.of(*PLANS[name]),
    )
    with runtime:
        assert runtime.mode == "thread" and runtime.replicas == 2
        requests = [runtime.submit(x) for x in traffic]
        start = time.perf_counter()
        runtime.pump(flush=True)
        duration_s = time.perf_counter() - start
        completed = [r for r in requests if r.done]
        shed = [r for r in requests if not r.done]
        # Zero silent losses: every admitted request completed or was
        # shed with a recorded reason.
        assert all(r.error is not None for r in shed)
        assert len(completed) + len(shed) == REQUESTS
        assert runtime.fault_plan.remaining == 0
        record = {
            "scenario": name,
            "admitted": REQUESTS,
            "completed": len(completed),
            "shed_failed": runtime.shed_failed,
            "duration_s": duration_s,
            "goodput_rps": len(completed) / duration_s,
            "restarts": [
                {
                    "replica": e.replica,
                    "reason": e.reason,
                    "cost_s": e.cost_s,
                }
                for e in runtime.restarts
            ],
            "reprograms": [
                {
                    "replica": e.replica,
                    "drift": e.drift,
                    "cost_s": e.cost_s,
                }
                for e in runtime.reprograms
            ],
        }
        # Bit-identity through the fault: the noise-free contract holds
        # per-sample for any batching, so the whole concatenated output
        # must equal the oracle — except the drift scenario's window
        # between injection and reprogramming, which is the documented
        # graceful-degradation regime (checked separately below).
        if name != "drift":
            served = np.stack([r.result for r in completed])
            reference = runtime.reference(
                np.stack([r.x for r in completed])
            )
            record["bit_identical"] = bool(
                np.array_equal(served, reference)
            )
        else:
            # Recovery restores exactness: a fresh post-reprogram pass
            # over the calibration batch must be bit-identical again.
            # One probe reads the one copy both replicas serve, so the
            # drift event costs exactly one reprogram.
            assert len(runtime.reprograms) == 1
            tail = runtime.serve(calibration)
            record["bit_identical"] = bool(
                np.array_equal(tail, runtime.reference(calibration))
            )
    _RUNS[name] = record
    return record


def test_chaos_fault_free_baseline():
    record = _scenario("fault-free")
    assert record["completed"] == REQUESTS
    assert record["shed_failed"] == 0
    assert not record["restarts"] and not record["reprograms"]
    assert record["bit_identical"]


def test_chaos_kill_recovers_with_goodput_floor():
    """The headline gate: kill one of two replicas mid-run."""
    base = _scenario("fault-free")
    kill = _scenario("kill")
    # Recovery: the dead replica was restarted (measured cost), the
    # run drained without deadlock, nothing was lost silently.
    assert len(kill["restarts"]) == 1
    assert kill["restarts"][0]["reason"] == "crash"
    assert kill["restarts"][0]["cost_s"] > 0.0
    assert kill["completed"] + kill["shed_failed"] == REQUESTS
    assert kill["shed_failed"] == 0  # recovery succeeded; nothing shed
    # Retried batches bit-identical against the reference oracle.
    assert kill["bit_identical"]
    ratio = kill["goodput_rps"] / base["goodput_rps"]
    assert ratio >= GOODPUT_FLOOR, (
        f"goodput under a replica kill fell to {ratio:.2f}x fault-free "
        f"({kill['goodput_rps']:,.0f} vs {base['goodput_rps']:,.0f} "
        f"rps); the gate is {GOODPUT_FLOOR}x"
    )


def test_chaos_drift_reprogram_restores_exactness():
    base = _scenario("fault-free")
    drift = _scenario("drift")
    assert len(drift["reprograms"]) == 1
    event = drift["reprograms"][0]
    assert event["replica"] == 0  # batch 2 -> replica 0 of two
    assert event["drift"] > 0.01 and event["cost_s"] > 0.0
    assert drift["completed"] == REQUESTS
    assert drift["bit_identical"]  # post-reprogram pass exact again
    ratio = drift["goodput_rps"] / base["goodput_rps"]
    assert ratio >= GOODPUT_FLOOR


def test_chaos_report_written(tmp_path_factory, request):
    """Render the goodput table and write the CI artifact."""
    records = [_scenario(name) for name in PLANS]
    print()
    print(
        f"{'scenario':>10} {'goodput_rps':>12} {'vs_base':>8} "
        f"{'restarts':>9} {'reprograms':>11} {'shed':>5} {'exact':>6}"
    )
    base_rps = records[0]["goodput_rps"]
    for r in records:
        print(
            f"{r['scenario']:>10} {r['goodput_rps']:>12,.0f} "
            f"{r['goodput_rps'] / base_rps:>7.2f}x "
            f"{len(r['restarts']):>9} {len(r['reprograms']):>11} "
            f"{r['shed_failed']:>5} {str(r['bit_identical']):>6}"
        )
    report = serving_report()
    payload = report.to_json()
    payload["chaos"] = {
        "requests_per_scenario": REQUESTS,
        "goodput_floor": GOODPUT_FLOOR,
        "scenarios": records,
    }
    out = Path(str(request.config.rootpath)) / "chaos_serving_report.json"
    out.write_text(json.dumps(payload, indent=1, default=str))
    # The per-tenant breakdown carries the fault-tolerance counters.
    by_tenant = {t.tenant: t for t in report.tenants}
    assert by_tenant["kill"].restarts == 1
    assert by_tenant["kill"].retries >= 1
    assert by_tenant["drift"].reprograms == 1
    assert by_tenant["fault-free"].restarts == 0
    telemetry.disable()
