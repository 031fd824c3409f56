"""Content-addressed on-disk artifact cache for the evaluation pipeline.

The expensive products of the eval stack — trained reference networks
and their held-out evaluation sets — are pure functions of a small set
of inputs.  This module persists them under a
key that hashes *all* of those inputs:

* the workload name and its topology signature,
* every training parameter (sample counts, epochs, seed),
* a fingerprint of the source modules that produce the artifact, so
  code changes invalidate entries automatically.

Layout: ``<root>/<kind>/<digest[:2]>/<digest>/`` holding the payload
files plus a ``meta.json`` completeness marker (written last; an entry
without it is ignored).  Writes go to a temp sibling directory and are
published with an atomic rename, so concurrent producers are safe.

Control knobs:

* ``PRIME_CACHE_DIR`` — cache root (default ``~/.cache/prime-repro``).
* ``PRIME_CACHE=0`` — start with the cache disabled.
* :func:`disable` / :func:`enable` — runtime switch.

Every lookup emits a ``perf.cache.hit`` or ``perf.cache.miss``
telemetry counter (labelled by artifact kind) when telemetry is on.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from functools import lru_cache
from importlib import import_module
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry

logger = logging.getLogger("repro.perf")

#: Source modules whose content determines a trained reference network.
_TRAIN_MODULES = (
    "repro.eval.reference",
    "repro.eval.workloads",
    "repro.nn.datasets",
    "repro.nn.initializers",
    "repro.nn.layers",
    "repro.nn.losses",
    "repro.nn.network",
    "repro.nn.topology",
)

_ACTIVE = os.environ.get("PRIME_CACHE", "").strip().lower() not in (
    "0",
    "false",
    "off",
)


def enable() -> None:
    """Turn the cache on (the default unless ``PRIME_CACHE=0``)."""
    global _ACTIVE
    _ACTIVE = True


def disable() -> None:
    """Bypass the cache: every lookup misses, nothing is written."""
    global _ACTIVE
    _ACTIVE = False


def active() -> bool:
    """Whether the cache currently serves and stores entries."""
    return _ACTIVE


def cache_root() -> Path:
    """The cache root: ``PRIME_CACHE_DIR`` or ``~/.cache/prime-repro``."""
    env = os.environ.get("PRIME_CACHE_DIR", "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "prime-repro"


def stable_key(payload: dict) -> str:
    """Deterministic hex digest of a JSON-serialisable key payload."""
    blob = json.dumps(
        payload, sort_keys=True, default=repr, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def code_fingerprint(*modules: str) -> str:
    """Digest of the given modules' source bytes.

    Included in every cache key so that editing any producing module
    invalidates its artifacts without manual version bumps.
    """
    h = hashlib.sha256()
    for name in modules:
        path = getattr(import_module(name), "__file__", None)
        if path:
            h.update(name.encode("utf-8"))
            h.update(Path(path).read_bytes())
    return h.hexdigest()[:16]


class ArtifactCache:
    """A content-addressed directory cache of evaluation artifacts."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else cache_root()

    def entry_dir(self, kind: str, key: dict) -> Path:
        """Directory an entry with this key lives in (may not exist)."""
        digest = stable_key(key)
        return self.root / kind / digest[:2] / digest

    def lookup(self, kind: str, key: dict) -> Path | None:
        """The entry directory on a hit, ``None`` on a miss.

        Only complete entries (``meta.json`` present) count as hits;
        a disabled cache always misses without recording counters.
        """
        if not _ACTIVE:
            return None
        entry = self.entry_dir(kind, key)
        if (entry / "meta.json").is_file():
            telemetry.count("perf.cache.hit", kind=kind)
            return entry
        telemetry.count("perf.cache.miss", kind=kind)
        return None

    def store(
        self, kind: str, key: dict, writer: Callable[[Path], None]
    ) -> Path | None:
        """Publish a new entry atomically; returns its directory.

        ``writer`` receives a private temp directory to fill; the
        ``meta.json`` marker is written last and the whole directory is
        renamed into place, replacing any stale entry.  Storage errors
        (read-only cache dir, disk full) are logged and swallowed — the
        computed artifact is still returned to the caller.
        """
        if not _ACTIVE:
            return None
        entry = self.entry_dir(kind, key)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(dir=entry.parent, prefix=".tmp-")
            )
            try:
                writer(tmp)
                (tmp / "meta.json").write_text(
                    json.dumps(key, indent=1, sort_keys=True, default=repr)
                )
                if entry.exists():
                    shutil.rmtree(entry)
                os.replace(tmp, entry)
            finally:
                if tmp.exists():
                    shutil.rmtree(tmp, ignore_errors=True)
        except OSError as exc:
            logger.warning("artifact cache store failed (%s): %s", kind, exc)
            return None
        telemetry.count("perf.cache.store", kind=kind)
        return entry

    def evict(self, kind: str, key: dict) -> None:
        """Drop one entry if present (used for corrupt payloads)."""
        entry = self.entry_dir(kind, key)
        if entry.exists():
            shutil.rmtree(entry, ignore_errors=True)


# ----------------------------------------------------------------------
# domain helpers
# ----------------------------------------------------------------------


def reference_network_key(
    workload: str,
    n_train: int,
    n_test: int,
    epochs: int,
    seed: int,
) -> dict:
    """The full cache key of one trained reference network.

    Exposed so tests can assert that changing any component moves the
    entry (i.e. forces a miss).
    """
    from repro.eval.workloads import get_workload

    wl = get_workload(workload)
    return {
        "kind": "reference_network",
        "workload": workload,
        "topology": wl.topology_text,
        "input_shape": list(wl.input_shape),
        "n_train": n_train,
        "n_test": n_test,
        "epochs": epochs,
        "seed": seed,
        "code": code_fingerprint(*_TRAIN_MODULES),
    }


def reference_network(
    workload: str = "CNN-1",
    n_train: int = 5000,
    n_test: int = 800,
    epochs: int = 10,
    seed: int = 7,
    cache: ArtifactCache | None = None,
):
    """Trained reference network + held-out set, served from the cache.

    Drop-in replacement for
    :func:`repro.eval.reference.train_reference_network`: a miss
    (or a disabled cache) trains exactly as before and persists the
    weights (via ``Sequential.save_npz``) and the evaluation split; a
    hit rebuilds the topology and reloads both in well under a second.
    """
    # Imported lazily: this module is a dependency of the eval stack.
    from repro.eval.reference import train_reference_network
    from repro.eval.workloads import get_workload

    cache = cache if cache is not None else ArtifactCache()
    key = reference_network_key(workload, n_train, n_test, epochs, seed)
    entry = cache.lookup("reference_network", key)
    if entry is not None:
        try:
            with telemetry.span(
                "perf.cache.load", kind="reference_network",
                workload=workload,
            ):
                with np.load(entry / "dataset.npz") as data:
                    x_test = data["x_test"]
                    y_test = data["y_test"]
                net = get_workload(workload).topology().build(
                    rng=np.random.default_rng(seed)
                )
                net.load_npz(entry / "weights.npz")
            return net, x_test, y_test
        except Exception as exc:  # corrupt entry: evict and retrain
            logger.warning(
                "evicting unreadable cache entry %s: %s", entry, exc
            )
            telemetry.count(
                "perf.cache.corrupt",
                kind="reference_network",
                error=type(exc).__name__,
            )
            cache.evict("reference_network", key)
    with telemetry.span(
        "perf.cache.train", kind="reference_network", workload=workload
    ):
        net, x_test, y_test = train_reference_network(
            workload,
            n_train=n_train,
            n_test=n_test,
            epochs=epochs,
            seed=seed,
        )

    def _write(target: Path) -> None:
        net.save_npz(target / "weights.npz")
        np.savez(target / "dataset.npz", x_test=x_test, y_test=y_test)

    cache.store("reference_network", key, _write)
    return net, x_test, y_test

