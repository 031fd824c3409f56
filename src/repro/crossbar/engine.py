"""The composed matrix-vector-multiply engine for one mat pair.

Sequences Figure 4's blocks into a full signed digital MVM:

1. the wordlines carry the high and low 3-bit halves of each 6-bit
   input in two phases;
2. the differential pair produces signed count-domain bitline values
   (positive minus negative array, HRS baseline cancelled);
3. with synapse composing, each logical column occupies two adjacent
   bitlines (high/low 4-bit weight halves), so one drive phase yields
   two partial products;
4. the reconfigurable SA digitises each active partial product at the
   composing spec's precision, and the precision-control accumulator
   aligns and sums them into the Po-bit-windowed result.

:meth:`CrossbarMVMEngine.mvm_batch` runs them as one read: both
phases' input codes, over the rows the engine uses, times what its
cells hold (:meth:`CrossbarMVMEngine.cell_weights`, the weights the
compiled plan stacks), digitised through
:func:`~repro.crossbar.sense.digitise` and summed.

The engine's output approximates ``(inputs @ W) >> target_shift`` —
the same quantity :func:`repro.precision.composing.reference_dot`
computes exactly — within the truncation/noise bound.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np

from repro import telemetry
from repro.errors import CrossbarError
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.precision.composing import ComposingSpec, split_unsigned
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import PairProgramReport
from repro.crossbar.pair import DifferentialPair
from repro.crossbar.sense import digitise, part_window

#: Guards every engine's firing counters, ``mvm_invocations`` and
#: ``sa_conversions``: replica threads walk and charge one shared
#: programmed copy at once, and ``+=`` on an attribute is not atomic.
COUNTER_LOCK = threading.Lock()


def charge_firings(
    engines: list["CrossbarMVMEngine"], vectors: int, output_shift: int
) -> None:
    """Charge ``vectors`` composed MVM firings at ``output_shift`` to
    each of ``engines`` (one composing spec): each engine fires once
    per vector, and its SA converts one value per active part
    (:func:`~repro.crossbar.sense.part_window`) per sensed column
    slot, spares included, per vector.  Telemetry gets
    ``mvm.invocations``, ``mvm.model_time_ns`` (``t_full_mvm`` each)
    and ``mvm.energy_nj`` (``e_full_mvm`` for each of a pair's two
    arrays).  The walk's engines and
    :meth:`~repro.crossbar.layer.ProgrammedLayer.charge` (the compiled
    plan's inline steps) both charge through here."""
    first = engines[0]
    pre, _ = part_window(first.spec, output_shift)
    active = int(np.count_nonzero(pre))
    with COUNTER_LOCK:
        for engine in engines:
            engine.mvm_invocations += vectors
            engine.sa_conversions += active * vectors * engine.slots_used
    if not telemetry.enabled():
        return
    firings = vectors * len(engines)
    params = first.params
    telemetry.count("mvm.invocations", firings)
    telemetry.count("mvm.model_time_ns", firings * params.t_full_mvm * 1e9)
    telemetry.count(
        "mvm.energy_nj", firings * 2.0 * params.e_full_mvm * 1e9
    )


class CrossbarMVMEngine:
    """A mat pair plus periphery, programmed with one signed submatrix."""

    def __init__(
        self,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
        track_endurance: bool = False,
    ) -> None:
        if not (params.compose_inputs and params.compose_weights):
            raise CrossbarError(
                "the MVM engine models the composed configuration; "
                "disable composing via ComposingSpec in the tests instead"
            )
        self.params = params
        self.spec = ComposingSpec.for_rows(
            params.rows,
            pin=params.effective_input_bits,
            pw=params.effective_weight_bits,
            po=params.output_bits,
        )
        self.pair = DifferentialPair(
            params, rng=rng, track_endurance=track_endurance
        )
        self.rows_used = 0
        self.cols_used = 0
        self._programmed = False
        #: Physical column slots the sense amp converts: the logical
        #: columns plus any spares column sparing programmed.
        self.slots_used = 0
        # Resilience state: the physical→logical gather after column
        # sparing, and the zero-mask of dead logical columns.
        self._gather: np.ndarray | None = None
        self._dead: np.ndarray | None = None
        self.spared_columns = 0
        #: Verified-programming outcome (None on the open-loop path).
        self.program_report: PairProgramReport | None = None
        #: Composed MVM firings since construction (one per input
        #: vector), for cost-model cross-validation.
        self.mvm_invocations = 0
        #: SA conversions since construction, for the energy model
        #: (:func:`charge_firings`).
        self.sa_conversions = 0

    # -- programming ------------------------------------------------------

    @property
    def level_dtype(self) -> np.dtype:
        """The narrowest integer dtype that holds ``±2**pw`` (int16 at
        the default 8-bit weights): the engine's weight and level
        matrices, which the pair and the cells take without widening."""
        return np.min_scalar_type(-(1 << self.spec.pw))

    def _signed_level_matrix(
        self, w: np.ndarray, slot0: int
    ) -> np.ndarray:
        """Physical signed-level matrix for logical weights ``w``
        occupying slots ``slot0 .. slot0 + w.shape[1]`` (hi/lo halves in
        adjacent even/odd bitlines); other cells stay at level 0.

        The split runs once, in :attr:`level_dtype`, on weights
        :meth:`program` has range-checked: each magnitude splits into
        its high and low ``pw/2``-bit halves (``split_unsigned``), and
        both halves take the weight's sign.  The verified writes use
        it; an open-loop write gives each array its own half
        (:meth:`_array_levels`).
        """
        rows, cols = w.shape
        dtype = self.level_dtype
        w = w.astype(dtype, copy=False)
        half = self.spec.pw // 2
        magnitude = np.abs(w)
        sign = np.sign(w)
        hi = magnitude >> half
        hi *= sign
        lo = magnitude & ((1 << half) - 1)
        lo *= sign
        levels = np.zeros((self.params.rows, self.params.cols), dtype=dtype)
        levels[:rows, 2 * slot0 : 2 * (slot0 + cols) : 2] = hi
        levels[:rows, 2 * slot0 + 1 : 2 * (slot0 + cols) : 2] = lo
        return levels

    @staticmethod
    def _array_levels(
        w: np.ndarray, sign: int, half: int, shape: tuple[int, int]
    ) -> np.ndarray:
        """The int16 ``shape`` level matrix of the positive (``sign``
        1) or the negative (-1) array for logical weights ``w`` at
        slot 0.

        Each weight of that sign splits its magnitude into its high and
        low ``half``-bit halves on adjacent even/odd bitlines; every
        other cell stays at level 0.  These are the two halves
        :meth:`DifferentialPair.program_signed_levels` splits
        :meth:`_signed_level_matrix` into, read from weights
        :meth:`program` has range-checked.  Static, so the level source
        a derived array keeps holds no reference back to its engine (a
        closed deployment frees its engines without a gc pass).
        """
        rows, cols = w.shape
        magnitude = np.maximum(sign * w, 0)
        levels = np.zeros(shape, dtype=np.int16)
        levels[:rows, 0 : 2 * cols : 2] = magnitude >> half
        levels[:rows, 1 : 2 * cols : 2] = magnitude & ((1 << half) - 1)
        return levels

    def program(
        self,
        signed_weights: np.ndarray,
        resilience: ResiliencePolicy | None = None,
    ) -> PairProgramReport | None:
        """Program a signed integer weight matrix into the pair.

        ``signed_weights`` has shape (rows_used, cols_used) with
        ``|w| < 2**pw``; rows_used ≤ physical rows and cols_used ≤
        logical columns.  Unused cells are left at HRS (zero weight).

        Without an active ``resilience`` policy the write is open-loop:
        the range-checked weights are kept as :attr:`programmed_weights`
        and each array is written from them
        (:meth:`~repro.device.cell.CellArray.program_levels_from`).  An
        array whose write is exact — no programming-variation draw, no
        fault map, no endurance tracker — builds its level matrix only
        when something first reads its cells, which ideal serving never
        does (see "Derived levels" in :mod:`repro.device.cell`); any
        other array is programmed at once, with the draws it always
        made.

        With an active ``resilience`` policy (``verify_writes`` true)
        the write runs the closed-loop verify pass, spares logical
        columns whose residual weight error exceeds the policy budget
        into redundant slots, zero-masks whatever the spare capacity
        cannot absorb, and returns the :class:`PairProgramReport`.
        """
        w = np.asarray(signed_weights)
        if w.ndim != 2:
            raise CrossbarError("weights must be a matrix")
        rows, cols = w.shape
        if rows > self.params.rows:
            raise CrossbarError(
                f"{rows} weight rows exceed {self.params.rows} wordlines"
            )
        if cols > self.params.logical_cols:
            raise CrossbarError(
                f"{cols} weight columns exceed "
                f"{self.params.logical_cols} logical columns"
            )
        limit = 1 << self.spec.pw
        if np.any(np.abs(w) >= limit):
            raise CrossbarError(
                f"weight magnitudes must be < 2**{self.spec.pw}"
            )
        #: Ideal programmed weights in :attr:`level_dtype`, kept for
        #: SA-reference calibration and the compiled plan's count
        #: stacks (dead columns, if any, are zeroed to match the masked
        #: outputs).
        self.programmed_weights = w.astype(self.level_dtype)
        self.rows_used = rows
        self.cols_used = cols
        self.slots_used = cols
        self._gather = None
        self._dead = None
        self.spared_columns = 0
        self.program_report = None
        if resilience is None or not resilience.verify_writes:
            levels_of = partial(
                self._array_levels,
                self.programmed_weights,
                half=self.spec.pw // 2,
                shape=(self.params.rows, self.params.cols),
            )
            # Positive array first, as its write may draw variation.
            self.pair.positive.program_levels_from(partial(levels_of, 1))
            self.pair.negative.program_levels_from(partial(levels_of, -1))
        else:
            mask = np.zeros(
                (self.params.rows, self.params.cols), dtype=bool
            )
            mask[:rows, : 2 * cols] = True
            report = self.pair.program_signed_levels(
                self._signed_level_matrix(self.programmed_weights, 0),
                verify=resilience,
                verify_mask=mask,
            )
            self._spare_and_mask(w, report, resilience)
        self._programmed = True
        if telemetry.enabled():
            telemetry.count("crossbar.programs")
            telemetry.count("crossbar.program_cells", 4 * w.size)
            telemetry.count(
                "crossbar.reprogram_ns",
                rows * self.params.device.t_write * 1e9,
            )
        return self.program_report

    def _slot_errors(
        self, residual: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Residual weight error per logical-column slot: the hi-half
        bitline errors weigh ``2**(pw/2)`` against the lo half."""
        hi_weight = 1 << (self.spec.pw // 2)
        hi = residual[: self.rows_used, 2 * slots]
        lo = residual[: self.rows_used, 2 * slots + 1]
        return hi_weight * hi.sum(axis=0) + lo.sum(axis=0)

    def _spare_and_mask(
        self,
        w: np.ndarray,
        report: PairProgramReport,
        policy: ResiliencePolicy,
    ) -> None:
        """Route out-of-budget columns into spare slots, mask the rest.

        Column health is judged by the verified residual weight error,
        not by raw fault counts — differential compensation repairs
        most stuck cells, so only columns whose *net* error exceeds
        ``policy.column_error_limit`` consume spares, worst columns
        first when the budget cannot cover them all.  Spare slots are
        themselves verified, so a faulty spare can be spared again
        while budget remains.  Masking is a last resort with its own,
        much larger ``policy.mask_error_limit``: once spares run out, a
        column with moderate residual error is kept as-is — zeroing it
        would discard good weights — and only true garbage is masked.
        """
        rows, cols = w.shape
        gather = np.arange(cols)
        slot_err = self._slot_errors(report.residual, np.arange(cols))
        next_slot = cols
        budget = min(
            policy.spare_columns, self.params.logical_cols - cols
        )
        while budget > 0:
            bad = np.flatnonzero(
                slot_err[gather] > policy.column_error_limit
            )
            if bad.size == 0:
                break
            order = np.argsort(-slot_err[gather][bad], kind="stable")
            take = bad[order[:budget]]
            n = int(take.size)
            new_slots = np.arange(next_slot, next_slot + n)
            levels = self._signed_level_matrix(w[:, take], next_slot)
            mask = np.zeros(
                (self.params.rows, self.params.cols), dtype=bool
            )
            mask[:rows, 2 * next_slot : 2 * (next_slot + n)] = True
            spare_report = self.pair.program_signed_masked(
                levels, mask, policy
            )
            slot_err = np.concatenate(
                [
                    slot_err,
                    self._slot_errors(spare_report.residual, new_slots),
                ]
            )
            report.absorb(spare_report)
            gather[take] = new_slots
            next_slot += n
            budget -= n
            self.spared_columns += n
            if telemetry.enabled():
                telemetry.count("resilience.column_spares", n)
        dead = slot_err[gather] > policy.mask_error_limit
        self.slots_used = next_slot
        if next_slot > cols:
            self._gather = gather
        if dead.any():
            self._dead = dead
            self.programmed_weights[:, dead] = 0
            if telemetry.enabled():
                telemetry.count(
                    "resilience.dead_columns", int(dead.sum())
                )
        self.program_report = report

    @property
    def on_lattice(self) -> bool:
        """True when both arrays' cells sit on the level lattice
        (:attr:`~repro.device.cell.CellArray.on_lattice`: ideal, or
        carrying only stuck-at faults), so every noise-free count is an
        integer (:meth:`cell_weights`)."""
        return self.pair.on_lattice

    @property
    def holds_programmed(self) -> bool:
        """True when each logical column's cells hold exactly its
        ``programmed_weights``: ideal cells and no spare gather (a dead
        column's programmed weights are already zero)."""
        return (
            self._gather is None
            and self.pair.positive.is_ideal
            and self.pair.negative.is_ideal
        )

    def cell_weights(
        self, with_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(rows_used, cols_used)`` hi and lo count weights of
        each logical column as one read sees its cells.

        A drive phase counts ``inputs @ hi`` on the column's
        high-weight (even) bitline and ``inputs @ lo`` on its low (odd)
        one, each from the pair's
        :meth:`~repro.crossbar.pair.DifferentialPair.count_weights`:
        integers on the lattice (:attr:`on_lattice`) for a read without
        read noise, stuck cells at their stuck levels; otherwise each
        cell pair's ``(G+ - G-) / g_step``, with this read's noise
        drawn when ``with_noise`` samples any.  Columns are read at
        the physical slot column sparing picked, and dead columns are
        zero, in logical column order.
        """
        rows = self.pair.count_weights(with_noise)[: self.rows_used]
        if self._gather is None:
            cols = 2 * self.cols_used
            hi, lo = rows[:, 0:cols:2], rows[:, 1:cols:2]
        else:
            hi, lo = rows[:, 2 * self._gather], rows[:, 2 * self._gather + 1]
        if self._dead is not None:
            hi[:, self._dead] = 0
            lo[:, self._dead] = 0
        return hi, lo

    @property
    def degraded(self) -> bool:
        """True when at least one logical column is zero-masked."""
        return self._dead is not None

    @property
    def masked_columns(self) -> int:
        """Logical output columns lost to zero-masking."""
        return 0 if self._dead is None else int(self._dead.sum())

    # -- execution --------------------------------------------------------

    def mvm(
        self,
        inputs: np.ndarray,
        with_noise: bool = True,
        output_shift: int | None = None,
    ) -> np.ndarray:
        """Composed signed MVM of one unsigned Pin-bit input vector:
        :meth:`mvm_batch` on a one-vector batch.

        Returns ``cols_used`` signed integers approximating
        ``(inputs @ W) >> output_shift`` (default:
        ``spec.target_shift``, the paper's Eq. 3 window).
        """
        inputs = np.asarray(inputs)
        if inputs.ndim != 1 or inputs.shape[0] != self.rows_used:
            raise CrossbarError(
                f"expected {self.rows_used} inputs, got {inputs.shape}"
            )
        return self.mvm_batch(inputs[None], with_noise, output_shift)[0]

    def mvm_batch(
        self,
        inputs: np.ndarray,
        with_noise: bool = True,
        output_shift: int | None = None,
    ) -> np.ndarray:
        """MVM over a (batch, rows_used) input matrix.

        The hardware drives the crossbar once per input vector (latency
        and energy scale with the batch); the model reads the cells
        once per call (:meth:`cell_weights`, drawing this call's read
        noise when ``with_noise`` samples any), so spared columns come
        from their slots and dead ones are zero.  ``output_shift``
        selects the output window: the default, ``spec.target_shift``,
        is the paper's fixed Po-bit window; smaller shifts model the
        calibrated SA reference that keeps typical signals' significant
        bits.
        """
        if not self._programmed:
            raise CrossbarError("engine must be programmed before mvm")
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows_used:
            raise CrossbarError(
                f"expected (batch, {self.rows_used}) inputs, got "
                f"{inputs.shape}"
            )
        if np.any(inputs < 0) or np.any(inputs >= (1 << self.spec.pin)):
            raise CrossbarError(
                f"inputs outside unsigned {self.spec.pin}-bit range"
            )
        shift = (
            self.spec.target_shift if output_shift is None else output_shift
        )
        n = inputs.shape[0]
        charge_firings([self], n, shift)
        # One row per drive phase and vector, high input halves first.
        drive = np.concatenate(
            split_unsigned(inputs.astype(np.int64), self.spec.pin)
        ).astype(np.float64)
        # Each column's hi and lo weights on adjacent bitlines.
        weights = np.stack(self.cell_weights(with_noise), axis=-1)
        counts = drive @ weights.reshape(self.rows_used, -1)
        # [input half, vector, column, weight half], as PART_GRID.
        parts = counts.reshape(2, n, self.cols_used, 2)
        pre, post = part_window(self.spec, shift)
        digitise(
            parts, pre[:, None, None], post[:, None, None], self.spec.po,
            out=parts,
        )
        # Digitised parts are integers, so the sum is exact in any order.
        by_column = parts[0] + parts[1]
        return (by_column[..., 0] + by_column[..., 1]).astype(np.int64)
