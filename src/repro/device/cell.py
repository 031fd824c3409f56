"""Vectorised ReRAM cell-array state.

A :class:`CellArray` models a rectangular field of metal-oxide ReRAM
cells.  Each cell holds a discrete MLC level (0 .. 2**mlc_bits - 1)
mapped linearly onto the [g_off, g_on] conductance range.  Programming
applies a multiplicative log-normal-ish perturbation (clamped Gaussian)
with the device's ``programming_sigma``; reads can add independent
Gaussian read noise.

This is the lowest layer of the functional simulator: each half of a
differential crossbar pair (:class:`repro.crossbar.pair.DifferentialPair`)
is a :class:`CellArray`, so device non-idealities (variation, noise,
faults, wear) affect every analog matrix-vector product exactly once.

Derived conductances.  While an array's stored conductance is exactly
the linear map of its levels (no perturbation was drawn and no fault
map applies), it stores no float64 matrix and derives it from the
levels on first read.  Every reader and every partial writer goes
through one accessor, :meth:`CellArray._stored_conductance`, which
builds ``g_off + g_step * levels`` once and caches it; partial writes
materialise the matrix before they change any level, so the cells they
leave alone keep their old conductance.  Arrays programmed with
variation or carrying a fault map are written eagerly, exactly as
before, so every RNG draw and every seeded conductance is unchanged.
Ideal serving never reads the matrix — the compiled plan runs on the
integer weights — so a deployed ideal network holds no float matrix.

Derived levels.  The level matrix is derived the same way.  A fresh
array holds no level matrix (its cells sit at level 0), and an exact
open-loop write (:meth:`CellArray.program_levels_from`: no
programming-variation draw, no fault map, no endurance tracker) keeps
only the function that builds the levels, its level source, which
the crossbar engine takes from its programmed weights.  Every reader
and every partial writer reaches the levels through one accessor,
:meth:`CellArray._stored_levels`, beside :meth:`_stored_conductance`;
it builds the matrix once, under the same lock, and keeps it, so
reads, drift, partial writes, the verify loop and reprogramming see
the levels an eager write stores.  The array keeps its level source
after that build until a write changes its levels (a partial write
drops it), so the source always gives the levels the array holds, and
reprogramming (:meth:`CellArray.reprogram`, the drift recovery) returns
such an array to its derived state, holding neither matrix.  An ideal
deployment therefore holds no per-cell state until something reads
its cells, and none again once it has recovered from drift.

Level lattice.  An array's stored conductances sit on the level
lattice ``g_off + g_step * level`` until a programming-variation draw
or drift moves them, and a wire resistance moves what every read sees.
Stuck-at faults keep an array on the lattice: a stuck cell sits exactly
at ``g_off`` or ``g_on``, the lattice's bottom and top levels.  A read
of an on-lattice array (:attr:`CellArray.on_lattice`) that samples no
read noise is therefore an integer in the count domain,
``inputs @ effective_levels`` above the HRS baseline, which the
differential pair computes exactly from the levels instead of through
the conductance round trip (whose float rounding would decide later
truncations).  Every other read goes through :meth:`conductances`.

Read-noise streams.  A read-noise draw comes from the array's own
generator unless the reading thread has scoped a stream of its own
(:func:`scoped_noise_stream`, resolved by :func:`read_noise_rng`).
Each noisy :meth:`conductances` call draws one value per cell, and the
per-engine walk and the compiled plan's noisy stacks read every array
once per call, in the same order, so both draw alike.  Serving scopes
every noisy micro-batch, so replica threads reading one shared
programmed copy never touch its generator.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable

import numpy as np

from repro import telemetry
from repro.errors import DeviceError
from repro.params.reram import ReRAMDeviceParams, PT_TIO2_DEVICE
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import ProgramReport
from repro.device.faults import FaultMap
from repro.device.endurance import EnduranceTracker
from repro.device.irdrop import apply_ir_drop

#: Serialises first reads of derived levels and conductances, so
#: concurrent readers of one array build and share a single matrix.
_DERIVE_LOCK = threading.Lock()

#: Per-thread read-noise stream (see :func:`scoped_noise_stream`).
_NOISE_TLS = threading.local()


@contextlib.contextmanager
def scoped_noise_stream(rng: np.random.Generator):
    """Draw this thread's read noise from ``rng``.

    Inside the context, every read-noise draw this thread makes — the
    cells' :meth:`CellArray.conductances`, on the per-engine walk and
    in the compiled plan's noisy stacks alike — comes from ``rng``
    instead of the arrays' generator, which stays untouched.  When
    every array of a network shares one generator, a forward under
    ``scoped_noise_stream(Generator(type(bit_generator)(seed)))``
    draws exactly what that generator would after being reset to
    ``seed``, without writing any shared state.  The override is
    thread-local: other threads, and this one once the context exits,
    draw from the arrays' generators.  Arrays built without a
    generator sample no noise inside the context either.
    """
    prev = getattr(_NOISE_TLS, "rng", None)
    _NOISE_TLS.rng = rng
    try:
        yield
    finally:
        _NOISE_TLS.rng = prev


def read_noise_rng(default: np.random.Generator) -> np.random.Generator:
    """The generator this thread's read-noise draws come from: the
    scoped stream (:func:`scoped_noise_stream`), else ``default``."""
    rng = getattr(_NOISE_TLS, "rng", None)
    return default if rng is None else rng


class CellArray:
    """A rows×cols field of MLC ReRAM cells.

    Parameters
    ----------
    rows, cols:
        Array dimensions.
    device:
        Device technology parameters.
    rng:
        Source of randomness for variation/noise; pass a seeded
        generator for reproducible simulations, or ``None`` to disable
        all stochastic effects (ideal device).
    fault_map:
        Optional stuck-at-fault overlay.
    track_endurance:
        When true, every programming event is counted per cell.
    wire_resistance:
        Per-cell-pitch wire resistance in ohms; non-zero enables the
        first-order IR-drop degradation of
        :mod:`repro.device.irdrop` on every read.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        device: ReRAMDeviceParams = PT_TIO2_DEVICE,
        rng: np.random.Generator | None = None,
        fault_map: FaultMap | None = None,
        track_endurance: bool = False,
        wire_resistance: float = 0.0,
    ) -> None:
        if rows < 1 or cols < 1:
            raise DeviceError("cell array dimensions must be positive")
        if wire_resistance < 0:
            raise DeviceError("wire resistance must be non-negative")
        self.rows = rows
        self.cols = cols
        self.device = device
        self.rng = rng
        self.fault_map = fault_map
        self.wire_resistance = wire_resistance
        self.endurance = (
            EnduranceTracker(rows, cols, device.endurance)
            if track_endurance
            else None
        )
        # Levels start at 0 and conductances at their exact mapping,
        # both derived on first read; programming may later perturb the
        # conductances (variation) and store them eagerly.  Stuck cells
        # are stuck from the start.
        self._levels: np.ndarray | None = None
        self._level_source: Callable[[], np.ndarray] | None = None
        self._conductance: np.ndarray | None = None
        if fault_map is not None:
            self._conductance = fault_map.apply(
                self._stored_conductance(), device
            )
        self._lattice = True

    # -- programming -------------------------------------------------

    def program_levels(
        self,
        levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
        verify_mask: np.ndarray | None = None,
    ) -> ProgramReport | None:
        """Program every cell to the given MLC level.

        ``levels`` must be an integer array of shape (rows, cols) with
        entries in [0, mlc_levels).  Programming variation is applied
        once, at write time, mirroring the write-and-verify tuning loop
        of real MLC ReRAM (Alibart et al.).

        With ``verify`` set, a closed-loop readback follows the write:
        cells outside ``verify.tolerance_steps`` conductance steps of
        their target are re-written up to ``verify.max_retries`` times
        with progressively tighter variation, and the outcome is
        returned as a :class:`ProgramReport`.  ``verify_mask``
        optionally restricts verification to the active sub-region
        (unused cells need no pulse budget).  Without ``verify`` the
        write is open-loop and returns ``None``, exactly as before.
        """
        levels = np.asarray(levels)
        if levels.shape != (self.rows, self.cols):
            raise DeviceError(
                f"level array shape {levels.shape} != "
                f"({self.rows}, {self.cols})"
            )
        if not np.issubdtype(levels.dtype, np.integer):
            raise DeviceError("levels must be integers")
        if levels.min() < 0 or levels.max() >= self.device.mlc_levels:
            raise DeviceError(
                f"levels outside [0, {self.device.mlc_levels})"
            )
        self._levels = levels.astype(np.int16)
        self._level_source = None
        self._lattice = not self._perturbs()
        if self._lattice and self.fault_map is None:
            self._conductance = None
        else:
            ideal = self._ideal_conductance(self._levels)
            self._conductance = self._perturb(
                ideal, self.device.programming_sigma
            )
        if self.fault_map is not None:
            self._conductance = self.fault_map.apply(
                self._conductance, self.device
            )
        if self.endurance is not None:
            self.endurance.record_writes(np.ones_like(levels, dtype=bool))
        if verify is None:
            return None
        if verify_mask is None:
            verify_mask = np.ones((self.rows, self.cols), dtype=bool)
        return self._verify_and_retry(verify_mask, verify)

    def program_levels_from(self, source: Callable[[], np.ndarray]) -> None:
        """Open-loop write of every cell to the levels ``source()``
        returns, an in-range integer (rows, cols) matrix.

        When the write is exact — it draws no programming variation,
        no fault map pins a cell, and no endurance tracker counts it —
        the array keeps ``source`` and builds the level matrix on
        first read (see "Derived levels" in the module docstring), so
        the write itself touches no cell state.  Any other array calls
        ``source`` now and programs as :meth:`program_levels` does,
        with the same draws.
        """
        if (
            self._perturbs()
            or self.fault_map is not None
            or self.endurance is not None
        ):
            self.program_levels(source())
            return
        self._levels = None
        self._level_source = source
        self._conductance = None
        self._lattice = True

    def reprogram(self) -> None:
        """Rewrite every cell, open loop, to the level it holds: the
        drift recovery, since drift decays conductances but never the
        programmed levels.

        An array that still has its level source (only an exact write
        keeps one, and a write that changes its levels drops it) drops
        both stored matrices and returns to its derived state (see
        "Derived levels" in the module docstring).  Every other array
        is programmed as :meth:`program_levels` programs its current
        levels, with the same draws.
        """
        if self._level_source is not None:
            self._levels = None
            self._conductance = None
            self._lattice = True
            return
        self.program_levels(self._stored_levels())

    def program_region(
        self,
        row0: int,
        col0: int,
        levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
    ) -> ProgramReport | None:
        """Program a rectangular sub-region, leaving other cells alone."""
        levels = np.asarray(levels)
        r, c = levels.shape
        if row0 < 0 or col0 < 0 or row0 + r > self.rows or col0 + c > self.cols:
            raise DeviceError("programmed region exceeds array bounds")
        if not np.issubdtype(levels.dtype, np.integer):
            raise DeviceError("levels must be integers")
        if levels.min() < 0 or levels.max() >= self.device.mlc_levels:
            raise DeviceError(
                f"levels outside [0, {self.device.mlc_levels})"
            )
        g = self._stored_conductance()
        self._stored_levels()[row0 : row0 + r, col0 : col0 + c] = levels
        self._level_source = None
        ideal = self._ideal_conductance(levels)
        g[row0 : row0 + r, col0 : col0 + c] = self._perturb(
            ideal, self.device.programming_sigma
        )
        self._lattice = self._lattice and not self._perturbs()
        if self.fault_map is not None:
            self._conductance = self.fault_map.apply(
                self._conductance, self.device
            )
        if self.endurance is not None:
            mask = np.zeros((self.rows, self.cols), dtype=bool)
            mask[row0 : row0 + r, col0 : col0 + c] = True
            self.endurance.record_writes(mask)
        if verify is None:
            return None
        mask = np.zeros((self.rows, self.cols), dtype=bool)
        mask[row0 : row0 + r, col0 : col0 + c] = True
        return self._verify_and_retry(mask, verify)

    def program_masked(
        self,
        mask: np.ndarray,
        levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
    ) -> ProgramReport | None:
        """Program an arbitrary subset of cells, leaving the rest alone.

        ``mask`` is a boolean (rows, cols) selector; ``levels`` is a
        full-shape integer matrix of which only the selected entries
        are written.  The sparing and compensation paths use this to
        re-target individual cells without re-perturbing their healthy
        neighbours.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.rows, self.cols):
            raise DeviceError(
                f"mask shape {mask.shape} != ({self.rows}, {self.cols})"
            )
        levels = np.asarray(levels)
        if levels.shape != (self.rows, self.cols):
            raise DeviceError(
                f"level array shape {levels.shape} != "
                f"({self.rows}, {self.cols})"
            )
        if not np.issubdtype(levels.dtype, np.integer):
            raise DeviceError("levels must be integers")
        if not mask.any():
            if verify is None:
                return None
            return ProgramReport(
                programmed_cells=0,
                retry_rounds=0,
                retried_cells=0,
                failed=np.zeros((self.rows, self.cols), dtype=bool),
            )
        selected = levels[mask]
        if selected.min() < 0 or selected.max() >= self.device.mlc_levels:
            raise DeviceError(
                f"levels outside [0, {self.device.mlc_levels})"
            )
        self._stored_conductance()  # materialise before levels change
        stored = self._stored_levels()
        stored[mask] = selected.astype(np.int16)
        self._level_source = None
        ideal = self._ideal_conductance(stored)
        self._write_cells(mask, ideal, self.device.programming_sigma)
        self._lattice = self._lattice and not self._perturbs()
        if self.endurance is not None:
            self.endurance.record_writes(mask)
        if verify is None:
            return None
        return self._verify_and_retry(mask, verify)

    def apply_drift(
        self, magnitude: float, rng: np.random.Generator
    ) -> None:
        """Decay stored conductances toward the HRS state.

        Models retention drift between refreshes: every cell's
        conductance relaxes multiplicatively toward ``g_off`` by a
        seeded random fraction around ``magnitude`` (cells drift at
        slightly different rates).  The programmed levels are *not*
        changed — :meth:`reprogram` rewrites the array from them, which
        is how the serving layer's drift-triggered reprogramming
        recovers accuracy.
        """
        if magnitude <= 0:
            raise DeviceError("drift magnitude must be > 0")
        g_off = self.device.g_off
        g = self._stored_conductance()
        rate = magnitude * np.abs(
            1.0 + 0.25 * rng.standard_normal(g.shape)
        )
        self._conductance = g_off + (g - g_off) * np.exp(-rate)
        self._lattice = False
        if self.fault_map is not None:
            self._conductance = self.fault_map.apply(
                self._conductance, self.device
            )

    # -- reading -----------------------------------------------------

    @property
    def levels(self) -> np.ndarray:
        """Programmed MLC levels (copy)."""
        return self._stored_levels().copy()

    @property
    def effective_levels(self) -> np.ndarray:
        """The levels the cells hold (copy): the programmed levels,
        with stuck-at-HRS cells at 0 and stuck-at-LRS cells at
        ``mlc_levels - 1``, where the fault map pins their
        conductance."""
        levels = self._stored_levels().copy()
        if self.fault_map is not None:
            levels[self.fault_map.stuck_hrs] = 0
            levels[self.fault_map.stuck_lrs] = self.device.mlc_levels - 1
        return levels

    @property
    def on_lattice(self) -> bool:
        """True when every conductance a read sees sits on the level
        lattice — no programming variation, drift, or IR drop; stuck-at
        faults allowed — so the noise-free MVM is the integer
        ``inputs @ effective_levels`` in the count domain (see the
        module docstring)."""
        return self._lattice and self.wire_resistance == 0.0

    @property
    def is_ideal(self) -> bool:
        """True when the stored conductances equal the exact linear
        mapping of the programmed levels — on the lattice and without
        faults — so :attr:`levels` are the levels every cell holds.
        The compiled plan splits an engine's programmed weights only
        when both its arrays are ideal; the exact count path needs only
        :attr:`on_lattice`."""
        return self.on_lattice and self.fault_map is None

    def conductances(self, with_read_noise: bool = False) -> np.ndarray:
        """Effective conductance matrix in siemens.

        ``with_read_noise`` adds an independent Gaussian perturbation
        per call, modelling sense-time thermal noise, drawn from
        :func:`read_noise_rng`.
        """
        g = self._stored_conductance()
        if self.wire_resistance > 0.0:
            g = apply_ir_drop(g, self.wire_resistance)
        if with_read_noise and self.rng is not None:
            sigma = self.device.read_noise_sigma
            if sigma > 0.0:
                # g * (1 + sigma * noise), in the draw's own buffer.
                noisy = read_noise_rng(self.rng).standard_normal(g.shape)
                noisy *= sigma
                noisy += 1.0
                noisy *= g
                return np.clip(noisy, 0.0, None, out=noisy)
        return np.clip(g, 0.0, None)

    def readback_levels(self) -> np.ndarray:
        """Noise-free single-cell readback in level units (float).

        The verify loop and the differential-compensation logic read
        cells one at a time through a reference column, so neither read
        noise nor IR drop applies; the value is the stored conductance
        mapped back through the linear level scale.
        """
        dev = self.device
        step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        return (self._stored_conductance() - dev.g_off) / step

    def bitline_currents(
        self, voltages: np.ndarray, with_read_noise: bool = False
    ) -> np.ndarray:
        """Analog MVM: currents summed down each bitline (Kirchhoff).

        ``voltages`` has shape (rows,) or (batch, rows); the result has
        shape (cols,) or (batch, cols) accordingly.
        """
        voltages = np.asarray(voltages, dtype=np.float64)
        if voltages.shape[-1] != self.rows:
            raise DeviceError(
                f"voltage vector length {voltages.shape[-1]} != rows "
                f"{self.rows}"
            )
        g = self.conductances(with_read_noise=with_read_noise)
        return voltages @ g

    # -- internals ---------------------------------------------------

    def _stored_levels(self) -> np.ndarray:
        """The stored int16 level matrix, built on first read while the
        array holds none: the write's level source (which the array
        keeps), or zeros for a fresh array (see the module docstring).
        The one accessor every reader and partial writer of the levels
        uses."""
        levels = self._levels
        if levels is None:
            with _DERIVE_LOCK:
                levels = self._levels
                if levels is None:
                    source = self._level_source
                    if source is None:
                        levels = np.zeros(
                            (self.rows, self.cols), dtype=np.int16
                        )
                    else:
                        levels = source().astype(np.int16, copy=False)
                    self._levels = levels
        return levels

    def _stored_conductance(self) -> np.ndarray:
        """The stored conductance matrix, derived from the levels on
        first read while the array holds none (see the module
        docstring).  The one accessor every reader and partial writer
        uses; a partial writer calls it before changing the levels."""
        g = self._conductance
        if g is None:
            levels = self._stored_levels()
            with _DERIVE_LOCK:
                g = self._conductance
                if g is None:
                    g = self._ideal_conductance(levels)
                    self._conductance = g
        return g

    def _ideal_conductance(self, levels: np.ndarray) -> np.ndarray:
        dev = self.device
        step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        g = levels.astype(np.float64)
        g *= step
        g += dev.g_off
        return g

    def _perturbs(self) -> bool:
        """Whether programming applies a stochastic perturbation."""
        return self.rng is not None and self.device.programming_sigma > 0.0

    def _perturb(self, ideal: np.ndarray, sigma: float) -> np.ndarray:
        """A write's conductances for targets ``ideal``: ``ideal * (1 +
        sigma * noise)`` clipped at zero, one clamped-Gaussian draw
        per cell, computed in the draw's own buffer; ``ideal`` itself
        when the write draws nothing."""
        if self.rng is None or sigma <= 0.0:
            return ideal
        noise = self.rng.standard_normal(ideal.shape)
        # Clamp at 3 sigma: write-and-verify rejects gross outliers.
        np.clip(noise, -3.0, 3.0, out=noise)
        noise *= sigma
        noise += 1.0
        noise *= ideal
        return np.clip(noise, 0.0, None, out=noise)

    def _write_cells(
        self, mask: np.ndarray, ideal: np.ndarray, sigma: float
    ) -> None:
        """Issue a write pulse to the masked cells only.

        ``ideal`` is the full-shape target conductance matrix; variation
        is drawn per selected cell (the open-loop full-array path keeps
        its historical full-shape draw so existing seeded runs stay
        bit-identical — this helper is only used by the masked and
        retry paths).
        """
        targets = self._perturb(ideal[mask], sigma)
        self._stored_conductance()[mask] = targets
        if self.fault_map is not None:
            self._conductance = self.fault_map.apply(
                self._conductance, self.device
            )

    def _verify_and_retry(
        self, mask: np.ndarray, policy: ResiliencePolicy
    ) -> ProgramReport:
        """Closed-loop verify: read back the masked cells, re-write the
        ones outside tolerance with a tightening pulse, give up after
        ``policy.max_retries`` rounds.  On a clean array the first
        readback passes everywhere, no pulse is issued, and no
        randomness is consumed — the verify pass is a strict no-op."""
        dev = self.device
        step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        tolerance = policy.tolerance_steps * step
        ideal = self._ideal_conductance(self._stored_levels())

        def out_of_tolerance() -> np.ndarray:
            return mask & (
                np.abs(self._stored_conductance() - ideal) > tolerance
            )

        bad = out_of_tolerance()
        rounds = 0
        retried = 0
        sigma = dev.programming_sigma
        while bad.any() and rounds < policy.max_retries:
            rounds += 1
            retried += int(bad.sum())
            sigma *= policy.retry_sigma_scale
            self._write_cells(bad, ideal, sigma)
            if self.endurance is not None:
                self.endurance.record_writes(bad)
            bad = out_of_tolerance()
        failed = bad
        if telemetry.enabled():
            if retried:
                telemetry.count("resilience.program.retry", retried)
            if failed.any():
                telemetry.count(
                    "resilience.program.giveup", int(failed.sum())
                )
        return ProgramReport(
            programmed_cells=int(mask.sum()),
            retry_rounds=rounds,
            retried_cells=retried,
            failed=failed,
        )
