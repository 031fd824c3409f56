"""Process-wide OpenBLAS thread budget for concurrent exact forwards.

Serving replicas are threads, and every replica's count matmuls draw
on the one OpenBLAS thread pool of the process.  Two replicas that each
ask for every BLAS thread oversubscribe the cores: on a 2-CPU host two
concurrent 256-wide MLP-L batches take longer than the same two
batches run one after the other.  :class:`BlasBudget` splits the pool
instead.  While two or more *exact* forwards execute and no inexact
one does, OpenBLAS runs ``max(1, base // active)`` threads; at all
other times it runs ``base``, the count it had when the budget was
built.  A lone forward keeps every thread.

Only exact forwards narrow the pool.  A forward is exact when every
weight layer's arrays are ideal and it samples no read noise
(:meth:`CompiledPlan.exact <repro.perf.plan.CompiledPlan.exact>`):
every count is then an integer inside the float dtype's exact range,
so the thread count cannot change a bit.  OpenBLAS's float results do
depend on its thread count, and continuous counts then pass through
the sense amp's truncation, so an inexact forward restores ``base``
before its first BLAS call and nothing narrows while one runs.

OpenBLAS is reached through :mod:`ctypes`: the library NumPy loaded is
found in ``/proc/self/maps``.  Without it (another BLAS build, another
platform), or at ``base`` 1 (for example under
``OPENBLAS_NUM_THREADS=1``), the budget does nothing.  The thread count
is one setting for the whole process, so there is one budget per
process (:func:`forward`), and BLAS calls made outside a budgeted
forward run at whatever count is current.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading

from repro import telemetry

__all__ = ["BlasBudget", "forward", "openblas_threads"]

#: ``(set, get)`` thread-count symbol pairs, in lookup order: NumPy's
#: wheel bundles a ``scipy_openblas64_`` build with prefixed symbols;
#: a system OpenBLAS exports the plain names.  (Not
#: ``openblas_set_num_threads_local``, which only OpenMP builds honour.)
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def openblas_threads():
    """The loaded OpenBLAS's ``(set, get)`` thread-count functions.

    ``None`` when no mapped library named ``*openblas*`` exports one of
    the symbol pairs (or the platform has no ``/proc/self/maps``).
    """
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.readlines()
    except OSError:
        return None
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


class BlasBudget:
    """Counts the forwards in flight and sizes the BLAS pool to them.

    ``threads`` is the library's ``(set, get)`` pair
    (:func:`openblas_threads`), or ``None``.  ``base`` is read once,
    here; with no pair, or a ``base`` of 1, :meth:`forward` does
    nothing.  The setter runs only when the target count changes, under
    the same lock as the two counters, so the count OpenBLAS holds
    always matches the forwards in flight.
    """

    def __init__(self, threads: tuple | None) -> None:
        self._set = None
        self.base = 1
        if threads is not None:
            setter, getter = threads
            base = int(getter())
            if base > 1:
                self._set, self.base = setter, base
        self._lock = threading.Lock()
        self._active = 0
        self._inexact = 0
        self._current = self.base

    def _retune(self) -> None:
        """Set the thread count the counters call for (lock held)."""
        if self._inexact or self._active < 2:
            target = self.base
        else:
            target = max(1, self.base // self._active)
        if target != self._current:
            self._set(target)
            self._current = target

    @contextlib.contextmanager
    def forward(self, exact: bool):
        """Hold one forward's place in the budget while it runs.

        Counts ``perf.blas.narrowed`` when the forward starts below
        ``base``.
        """
        if self._set is None:
            yield
            return
        with self._lock:
            self._active += 1
            self._inexact += not exact
            self._retune()
            narrowed = self._current < self.base
        if narrowed:
            telemetry.count("perf.blas.narrowed")
        try:
            yield
        finally:
            with self._lock:
                self._active -= 1
                self._inexact -= not exact
                self._retune()


_budget: BlasBudget | None = None
_budget_lock = threading.Lock()


def forward(exact: bool):
    """:meth:`BlasBudget.forward` on the process's budget, which is
    built (and finds OpenBLAS) on first use."""
    global _budget
    budget = _budget
    if budget is None:
        with _budget_lock:
            if _budget is None:
                _budget = BlasBudget(openblas_threads())
            budget = _budget
    return budget.forward(exact)
