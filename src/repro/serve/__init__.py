"""High-throughput serving runtime for deployed PRIME networks.

The ROADMAP's north star is serving heavy traffic; the paper's own
evaluation scenario is a datacenter running the same NN tens of
thousands of times.  This package turns the one-shot
compile/program/run pipeline into a resident service:

* :mod:`repro.serve.batcher` — dynamic micro-batching: single-sample
  requests coalesce into batches sized against the executor's
  streaming chunk model (its 256 MiB ``DEFAULT_CHUNK_BYTES`` budget),
  with a ``max_wait_s`` latency knob, so the compiled plan always sees
  wide matmuls.
* :mod:`repro.serve.dispatcher` — replica-parallel dispatch: each
  :class:`~repro.core.scheduler.BankScheduler` replica bank group maps
  to a replica thread serving ONE programmed copy (serial mode serves
  it inline); the network is programmed **exactly once** per
  deployment — grow, restart and the degrade to serial program
  nothing — and every batch runs from the cached programmed state
  with frozen calibration.  ``mode="auto"`` picks threads for two or
  more replicas; see the README's dispatch-mode matrix.
* :mod:`repro.serve.runtime` — :class:`ServingRuntime` glues grant,
  batcher, and dispatcher together and carries the bit-identity
  guarantee against a direct ``run_functional`` call.
* :mod:`repro.serve.loadgen` — closed-loop load generation with
  p50/p95/p99 latency metering (``serve.*`` telemetry) and the
  analytical throughput cross-check.
* :mod:`repro.serve.arrivals` — open-loop arrival processes
  (Poisson base with burst/diurnal/spike shapes, deterministic from
  the seed) for saturation studies the closed loop cannot express.
* :mod:`repro.serve.autoscaler` — reactive replica autoscaling:
  windowed arrival rate against per-replica capacity, grow/shrink
  through ``ServingRuntime.scale_to`` with measured cost.
* :mod:`repro.serve.cluster` — :class:`ServingCluster`: several
  tenants over one shared bank pool, pipelined non-blocking polling
  across deployments, per-tenant admission control (queue-depth and
  deadline shedding), and the open-loop saturation reports.
* :mod:`repro.serve.health` — fault tolerance: per-batch deadlines
  with deterministic bounded retry, replica health monitoring with
  quarantine/restart (:class:`ReplicaHealthMonitor`), drift-triggered
  background reprogramming of the copy, and the seeded chaos harness
  (:class:`FaultPlan`) the fault-injection suite drives.

Every request carries a trace context (deterministic trace id, tenant
label, arrival time) and its lifecycle is recorded as
``serve.request`` spans with batcher/queue/replica children; each
replica's forward records straight into the live session on its own
``replica:N`` trace track — see :func:`repro.telemetry.serving_report`
for the per-stage latency breakdown and SLO attainment view.

See README "Serving" for the knobs and the guarantee, and
``benchmarks/test_serve_throughput.py`` for the steady-state speedup
this buys over per-request execution.
"""

from repro.serve.arrivals import ArrivalProcess, TrafficShape
from repro.serve.autoscaler import (
    Autoscaler,
    AutoscalerPolicy,
    ScaleEvent,
)
from repro.serve.batcher import (
    DEFAULT_MAX_WAIT_S,
    MAX_BATCH_CAP,
    MicroBatcher,
    ServeRequest,
)
from repro.serve.cluster import (
    AdmissionPolicy,
    ClusterReport,
    ServingCluster,
    TenantReport,
    TenantSpec,
)
from repro.serve.dispatcher import (
    ThreadDispatcher,
    WorkerSpec,
    batch_noise_seed,
    make_dispatcher,
    program_state,
    run_programmed,
    spec_resident_bytes,
)
from repro.serve.health import (
    FaultEvent,
    FaultPlan,
    HealthPolicy,
    ReplicaHealthMonitor,
    ReprogramEvent,
    RestartEvent,
    WorkerCrash,
)
from repro.serve.loadgen import LoadGenerator, LoadReport
from repro.serve.runtime import ServeConfig, ServingRuntime

__all__ = [
    "AdmissionPolicy",
    "ArrivalProcess",
    "Autoscaler",
    "AutoscalerPolicy",
    "ClusterReport",
    "DEFAULT_MAX_WAIT_S",
    "FaultEvent",
    "FaultPlan",
    "HealthPolicy",
    "LoadGenerator",
    "LoadReport",
    "MAX_BATCH_CAP",
    "ReplicaHealthMonitor",
    "ReprogramEvent",
    "RestartEvent",
    "ScaleEvent",
    "ServingCluster",
    "TenantReport",
    "TenantSpec",
    "TrafficShape",
    "MicroBatcher",
    "ServeConfig",
    "ServeRequest",
    "ServingRuntime",
    "ThreadDispatcher",
    "WorkerCrash",
    "WorkerSpec",
    "batch_noise_seed",
    "make_dispatcher",
    "program_state",
    "run_programmed",
    "spec_resident_bytes",
]
