"""Performance layer: artifact cache, compiled plan, BLAS budget, seeds.

None of it changes a number the evaluation pipeline produces:

* :mod:`repro.perf.cache` — a content-addressed on-disk artifact cache
  for trained reference networks and their evaluation datasets.  Keys
  hash every input that determines the artifact (workload, topology
  signature, train parameters, seed, and a fingerprint of the
  producing source modules), so stale entries are impossible by
  construction.  Controlled by ``PRIME_CACHE_DIR`` / ``PRIME_CACHE=0``
  / :func:`~repro.perf.cache.disable`.
* :mod:`repro.perf.plan` — the compiled plan, the one fast path for
  programmed crossbars (whole networks, or one layer at a time for the
  in-situ trainer and the SNN backend): a few batched matmuls per
  layer, bit-identical to the per-engine walk, with read noise too
  under equal draws.  It reads each layer's tile grid, calibration and
  accounting from :class:`~repro.crossbar.layer.ProgrammedLayer`, and
  ``PRIME_FUSED=0`` (:func:`~repro.perf.plan.fused_enabled`) walks
  every layer instead.
* :mod:`repro.perf.blas` — the process-wide BLAS thread budget
  concurrent exact forwards share.
* :mod:`repro.perf.parallel` — :func:`~repro.perf.parallel.task_seed`,
  the per-task seed the yield study and the serving dispatchers draw
  their random streams from, so a result never depends on task order.

The cache and the plan emit ``perf.*`` telemetry counters when
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
    reference_network,
    reference_network_key,
    stable_key,
)
from repro.perf.parallel import task_seed

__all__ = [
    "ArtifactCache",
    "active",
    "cache_root",
    "code_fingerprint",
    "disable",
    "enable",
    "reference_network",
    "reference_network_key",
    "stable_key",
    "task_seed",
]
