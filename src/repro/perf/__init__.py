"""Performance layer: artifact cache, compiled plan, fused kernels, seeds.

None of it changes a number the evaluation pipeline produces:

* :mod:`repro.perf.cache` — a content-addressed on-disk artifact cache
  for trained reference networks, their evaluation datasets, and
  compiled mapping plans.  Keys hash every input that determines the
  artifact (workload, topology signature, train parameters, seed, and
  a fingerprint of the producing source modules), so stale entries are
  impossible by construction.  Controlled by ``PRIME_CACHE_DIR`` /
  ``PRIME_CACHE=0`` / :func:`~repro.perf.cache.disable`.
* :mod:`repro.perf.plan` — the compiled plan, the one fast path for
  programmed crossbars (whole networks, or one layer at a time for the
  in-situ trainer and the SNN backend): a few batched matmuls per
  layer, bit-identical to the per-engine walk, with read noise too
  under equal draws.
* :mod:`repro.perf.kernels` — the layer kernel the plan reads: the
  tile grid's state token, calibration and firing accounting, and the
  walk, which ``PRIME_FUSED=0`` selects for every layer.
* :mod:`repro.perf.parallel` — :func:`~repro.perf.parallel.task_seed`,
  the per-task seed the yield study and the serving dispatchers draw
  their random streams from, so a result never depends on task order.

The cache and the kernels emit ``perf.*`` telemetry counters when
:mod:`repro.telemetry` is enabled; with caching disabled everything
recomputes.
"""

from repro.perf.cache import (
    ArtifactCache,
    active,
    cache_root,
    code_fingerprint,
    disable,
    enable,
    mapping_plan,
    reference_network,
    reference_network_key,
    stable_key,
)
from repro.perf.kernels import FusedLayerKernel, fused_enabled
from repro.perf.parallel import task_seed

__all__ = [
    "ArtifactCache",
    "FusedLayerKernel",
    "active",
    "cache_root",
    "code_fingerprint",
    "disable",
    "enable",
    "fused_enabled",
    "mapping_plan",
    "reference_network",
    "reference_network_key",
    "stable_key",
    "task_seed",
]
