"""Shared helpers for the per-figure benchmark harness.

Every module regenerates one table or figure of the paper's evaluation
section: it runs the experiment driver once under pytest-benchmark,
asserts the paper's qualitative shape, and prints the same rows/series
the paper plots (run with ``-s`` to see them).

Each run also writes ``BENCH_summary.json`` next to the repo root — a
machine-readable record of per-benchmark wall time plus the scalar
outputs of each driver's result object — so the performance trajectory
of the reproduction is tracked across PRs.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

#: benchmark name -> {"wall_s": float, "result": {scalar fields}}
_RESULTS: dict[str, dict] = {}


def _scalar_fields(obj, limit: int = 24) -> dict:
    """Public int/float/str attributes of a result object, or
    ``{"value": obj}`` for a bare number (whose public attributes are
    its ``real`` and ``imag`` parts)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {"value": obj}
    out: dict[str, object] = {}
    for name in dir(obj):
        if name.startswith("_") or len(out) >= limit:
            continue
        try:
            value = getattr(obj, name)
        except Exception:
            continue
        if isinstance(value, bool) or callable(value):
            continue
        if isinstance(value, (int, float, str)):
            out[name] = value
    return out


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single measured invocation.

    Experiment drivers are deterministic and some are slow (training);
    one round keeps the harness fast while still recording a timing.
    """
    start = time.perf_counter()
    result = benchmark.pedantic(
        fn, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - start
    name = getattr(benchmark, "name", None) or getattr(
        fn, "__name__", "benchmark"
    )
    _RESULTS[name] = {
        "wall_s": wall_s,
        "result": _scalar_fields(result) if result is not None else {},
    }
    return result


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""

    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


@pytest.fixture(scope="session")
def fig6_reference():
    """The trained Figure 6 reference network, via the artifact cache.

    Cold runs train for ~18 s and persist the weights + evaluation
    split under ``PRIME_CACHE_DIR``; warm runs reload them in well
    under a second.  The acquisition time is recorded into
    ``BENCH_summary.json`` as ``fig6_reference_setup`` so the cold/warm
    gap is visible to ``benchmarks/compare_bench.py``.
    """
    from repro.perf.cache import reference_network

    start = time.perf_counter()
    reference = reference_network(
        "CNN-1", n_train=5000, n_test=800, epochs=10, seed=7
    )
    _RESULTS["fig6_reference_setup"] = {
        "wall_s": time.perf_counter() - start,
        "result": {},
    }
    return reference


def pytest_sessionfinish(session, exitstatus):
    """Write the machine-readable summary of every benchmark that ran."""
    if not _RESULTS:
        return
    path = Path(str(session.config.rootpath)) / "BENCH_summary.json"
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "exit_status": int(exitstatus),
        "benchmarks": dict(sorted(_RESULTS.items())),
    }
    path.write_text(json.dumps(payload, indent=1, default=str))
