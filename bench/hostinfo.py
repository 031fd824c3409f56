"""The host block recorded with every benchmark result.

Numbers from two machines are only comparable next to what the machines
were: core count, interpreter and numpy builds, the BLAS library and its
thread settings (recorded, never pinned), and a calibration probe -- a
fixed BLAS matmul and a fixed pure-Python loop -- whose ratio to another
host's probe normalises wall times across hosts.  The block also records
the commit and the size of each ``src/repro`` package, so a change's
line count sits next to its speed.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

#: Environment variables that set BLAS / OpenMP thread counts.
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def blas_vendor() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def calibration_probe(repeats: int = 15) -> dict:
    """Median wall time of a fixed matmul and a fixed Python loop (ms)."""
    rng = np.random.default_rng(0)
    a = rng.random((800, 1500))
    b = rng.random((1500, 16))
    matmul = []
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        matmul.append(time.perf_counter() - start)
    loop = []
    for _ in range(max(3, repeats // 3)):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        loop.append(time.perf_counter() - start)
    return {
        "matmul_800x1500x16_ms": statistics.median(matmul) * 1e3,
        "python_loop_200k_ms": statistics.median(loop) * 1e3,
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, or None outside a git checkout.

    ``root`` must hold ``.git`` itself (a directory, or a file in a
    worktree or submodule): otherwise git would report the commit of
    whatever repository encloses ``root``.
    """
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def package_lines(src: Path) -> dict[str, int]:
    """Non-blank source lines per ``src/repro`` package (top-level
    modules count under the package name ``repro``)."""
    counts: dict[str, int] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).parts
        key = rel[0] if len(rel) > 1 else "repro"
        with path.open(encoding="utf-8") as f:
            lines = sum(1 for line in f if line.strip())
        counts[key] = counts.get(key, 0) + lines
    return counts


def host_block(root: Path) -> dict:
    """Everything about the host a result should carry."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "probe": calibration_probe(),
        "commit": git_commit(root),
        "src_lines": package_lines(root / "src" / "repro"),
    }
