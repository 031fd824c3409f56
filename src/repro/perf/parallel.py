"""Deterministic per-task seeds.

:func:`task_seed` derives one seed per task from a base seed and the
task's key.  The yield study seeds each fault rate's maps with it and
serving seeds each micro-batch's noise stream, so a result depends only
on its own key: neither the order the tasks run in, nor the replica a
batch lands on, nor the other tasks of a sweep change it.
"""

from __future__ import annotations

import hashlib


def task_seed(base_seed: int, *key: object) -> int:
    """A deterministic, well-separated seed for one task.

    Hashes ``(base_seed, *key)`` so per-task streams are independent of
    task order and of the replica that runs the task — the same task
    always gets the same seed.
    """
    blob = repr((int(base_seed),) + key).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
