"""Performance layer: artifact cache, fused kernels and task seeds.

None of it changes a number the evaluation pipeline produces:

* :mod:`repro.perf.cache` — a content-addressed on-disk artifact cache
  for trained reference networks, their evaluation datasets, and
  compiled mapping plans.  Keys hash every input that determines the
  artifact (workload, topology signature, train parameters, seed, and
  a fingerprint of the producing source modules), so stale entries are
  impossible by construction.  Controlled by ``PRIME_CACHE_DIR`` /
  ``PRIME_CACHE=0`` / :func:`~repro.perf.cache.disable`.
* :mod:`repro.perf.kernels` — fused layer-level crossbar kernels: one
  batched evaluation per mapped layer instead of a Python walk over
  the ``row_blocks × col_blocks`` tile grid, bit-identical to the
  per-engine path with noise off and seed-reproducible with noise on.
  Controlled by ``PRIME_FUSED``.
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
