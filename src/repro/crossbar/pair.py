"""Differential crossbar pair + analog subtraction unit (Fig. 4 B).

Signed weight matrices are implemented as two crossbar arrays — one
programmed with the positive weights and one with the negative-weight
magnitudes — sharing the same input port.  The modified column
multiplexer subtracts the negative array's bitline current from the
positive array's before the sigmoid unit and the SA, which also cancels
the common HRS-baseline current exactly.  :class:`DifferentialPair`
holds the two arrays themselves, :attr:`~DifferentialPair.positive`
and :attr:`~DifferentialPair.negative`, each a
:class:`~repro.device.cell.CellArray`, and writes them directly.

One formula reads the pair: a read counts ``inputs @
count_weights(with_noise)``, each cell pair's signed weight in count
units.  Without read noise on the level lattice that weight is the
integer ``effective_levels`` difference, so the count is exact;
otherwise it is ``(G+ - G-) / g_step`` from the two arrays'
conductances, each array drawing its read noise for the read, the
positive one first.  It equals the difference of the two arrays'
baseline-carrying bitline currents
(:meth:`~repro.device.cell.CellArray.bitline_currents` of ``inputs *
v_step``, over the unit current ``v_step * g_step``) up to float
rounding.  Every functional tier reads the pair through it: the
engine's walk and the compiled plan's stacks take it per logical
column (:meth:`~repro.crossbar.engine.CrossbarMVMEngine.cell_weights`),
and :meth:`DifferentialPair.analog_mvm_counts` multiplies a full
wordline drive by it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrossbarError
from repro.device import CellArray, FaultMap
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import PairProgramReport


def _array(
    params: CrossbarParams,
    rng: np.random.Generator | None,
    fault_map: FaultMap | None,
    track_endurance: bool,
) -> CellArray:
    """One half of a pair.  Sampling a missing fault map from the
    configured stuck-at rates gives call sites fault injection end to
    end without building maps."""
    rate_hrs, rate_lrs = params.fault_rate_hrs, params.fault_rate_lrs
    if fault_map is None and (rate_hrs > 0.0 or rate_lrs > 0.0):
        if rng is None:
            raise CrossbarError(
                "fault-rate injection needs a seeded rng; pass one to "
                "the crossbar or clear the fault rates"
            )
        fault_map = FaultMap.random(
            params.rows, params.cols, rate_hrs, rate_lrs, rng
        )
    return CellArray(
        params.rows,
        params.cols,
        device=params.device,
        rng=rng,
        fault_map=fault_map,
        track_endurance=track_endurance,
    )


class DifferentialPair:
    """Positive/negative crossbar pair computing signed analog MVMs.

    Each half is a :class:`~repro.device.cell.CellArray` with the
    given fault map, or else one sampled from ``params.fault_rate_hrs``
    and ``fault_rate_lrs`` with ``rng``, the positive half first.
    """

    def __init__(
        self,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
        fault_maps: tuple[FaultMap, FaultMap] | None = None,
        track_endurance: bool = False,
    ) -> None:
        self.params = params
        pos_faults, neg_faults = fault_maps if fault_maps else (None, None)
        # The positive half first: a sampled fault map draws from rng.
        self.positive = _array(params, rng, pos_faults, track_endurance)
        self.negative = _array(params, rng, neg_faults, track_endurance)

    def _pos_neg(
        self, signed_levels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Range-check a signed level matrix and split it into the
        positive array's levels and the negative array's magnitudes.

        ``pos = L * (L > 0)`` and ``neg = pos - L`` equal
        ``clip(L, 0)`` and ``clip(-L, 0)`` exactly on integers, in the
        levels' own dtype and without clip's per-call overhead.
        """
        limit = self.params.device.mlc_levels
        if np.any(np.abs(signed_levels) >= limit):
            raise CrossbarError(
                f"signed levels must have magnitude < {limit}"
            )
        pos = signed_levels * (signed_levels > 0)
        return pos, pos - signed_levels

    def program_signed_levels(
        self,
        signed_levels: np.ndarray,
        verify: ResiliencePolicy | None = None,
        verify_mask: np.ndarray | None = None,
    ) -> PairProgramReport | None:
        """Program a signed level matrix into the pair.

        ``signed_levels`` has shape (rows, cols) with entries in
        (-mlc_levels, mlc_levels); positives go to the positive array,
        negative magnitudes to the negative array, and the complementary
        cells stay at level 0 (HRS).

        With ``verify`` set, both halves run their write-and-verify
        loops (restricted to ``verify_mask`` when given), irrecoverable
        cells are repaired where possible by re-targeting the healthy
        complementary cell (differential compensation), and the
        combined outcome is returned as a :class:`PairProgramReport`.
        """
        signed_levels = np.asarray(signed_levels)
        pos, neg = self._pos_neg(signed_levels)
        if verify is None:
            self.positive.program_levels(pos)
            self.negative.program_levels(neg)
            return None
        if verify_mask is None:
            verify_mask = np.ones(signed_levels.shape, dtype=bool)
        report_pos = self.positive.program_levels(
            pos, verify=verify, verify_mask=verify_mask
        )
        report_neg = self.negative.program_levels(
            neg, verify=verify, verify_mask=verify_mask
        )
        return self._compensate(
            signed_levels.astype(np.int64),
            verify_mask,
            report_pos,
            report_neg,
            verify,
        )

    def program_signed_masked(
        self,
        signed_levels: np.ndarray,
        mask: np.ndarray,
        verify: ResiliencePolicy,
    ) -> PairProgramReport:
        """Verified programming of a cell subset (spare-column passes)."""
        signed_levels = np.asarray(signed_levels)
        pos, neg = self._pos_neg(signed_levels)
        report_pos = self.positive.program_masked(mask, pos, verify=verify)
        report_neg = self.negative.program_masked(mask, neg, verify=verify)
        return self._compensate(
            signed_levels.astype(np.int64),
            np.asarray(mask, dtype=bool),
            report_pos,
            report_neg,
            verify,
        )

    def _compensate(
        self,
        desired: np.ndarray,
        mask: np.ndarray,
        report_pos,
        report_neg,
        policy: ResiliencePolicy,
    ) -> PairProgramReport:
        """Differential compensation of irrecoverable cells.

        A cell stuck in one array can often be cancelled by moving its
        complementary cell off the HRS baseline: the pair computes
        ``pos - neg``, so when the positive cell is frozen at level
        ``s`` the negative cell is re-targeted to ``clip(s - d, 0,
        L-1)`` (``d`` the desired signed level), restoring the exact
        difference whenever it lies in the achievable window.  The
        compensation writes run their own verify loop; whatever error
        is left lands in the residual matrix for the engine's
        column-health accounting.
        """
        limit = self.params.device.mlc_levels - 1
        compensated = 0
        bad_pos = report_pos.failed
        bad_neg = report_neg.failed
        if bad_pos.any() or bad_neg.any():
            achieved_pos = np.rint(
                self.positive.readback_levels()
            ).astype(np.int64)
            achieved_neg = np.rint(
                self.negative.readback_levels()
            ).astype(np.int64)
            fix_via_neg = bad_pos & ~bad_neg
            fix_via_pos = bad_neg & ~bad_pos
            if fix_via_neg.any():
                target = np.clip(achieved_pos - desired, 0, limit)
                repair = self.negative.program_masked(
                    fix_via_neg, target, verify=policy
                )
                report_neg.absorb(repair)
                compensated += int(fix_via_neg.sum())
            if fix_via_pos.any():
                target = np.clip(desired + achieved_neg, 0, limit)
                repair = self.positive.program_masked(
                    fix_via_pos, target, verify=policy
                )
                report_pos.absorb(repair)
                compensated += int(fix_via_pos.sum())
        achieved = (
            self.positive.readback_levels() - self.negative.readback_levels()
        )
        residual = np.abs(achieved - desired)
        residual[~mask] = 0.0
        return PairProgramReport(
            positive=report_pos,
            negative=report_neg,
            compensated_cells=compensated,
            residual=residual,
        )

    @property
    def on_lattice(self) -> bool:
        """True when both halves' cells sit on the level lattice
        (:attr:`~repro.device.cell.CellArray.on_lattice`: ideal, or
        carrying only stuck-at faults)."""
        return self.positive.on_lattice and self.negative.on_lattice

    def samples_read_noise(self, with_noise: bool) -> bool:
        """Whether a read with this noise flag draws read noise: the
        device has some, and a half's cells have a generator to draw
        it from."""
        return (
            with_noise
            and self.params.device.read_noise_sigma > 0.0
            and (
                self.positive.rng is not None
                or self.negative.rng is not None
            )
        )

    def count_weights(self, with_noise: bool = False) -> np.ndarray:
        """Each cell pair's signed weight in count units, as one read
        sees it.

        A read that samples no read noise on the level lattice
        (:attr:`on_lattice`) sees the integer ``effective_levels``
        difference.  Any other read sees ``(G+ - G-) / g_step`` from
        the cells' conductances (variation, drift and wire resistance
        included), each half drawing its read noise for this read when
        it samples any (:meth:`samples_read_noise`), the positive half
        first.  The HRS baseline cancels per cell pair.
        """
        positive, negative = self.positive, self.negative
        noisy = self.samples_read_noise(with_noise)
        if not noisy and self.on_lattice:
            return positive.effective_levels - negative.effective_levels
        dev = self.params.device
        g_step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        # Left to right: the positive half draws first.  Both operands
        # are temporaries, so NumPy computes the difference and the
        # quotient in the first one's buffer.
        return (
            positive.conductances(with_read_noise=noisy)
            - negative.conductances(with_read_noise=noisy)
        ) / g_step

    def analog_mvm_counts(
        self, input_levels: np.ndarray, with_noise: bool = True
    ) -> np.ndarray:
        """Signed count-domain MVM: positive minus negative currents.

        The column multiplexer subtracts the negative array's bitline
        current from the positive one's, which cancels the HRS
        baseline; by linearity that is the inputs times each cell
        pair's weight difference, so the read is ``input_levels @
        count_weights(with_noise)``: one read-noise draw per half per
        call, and on the level lattice without read noise an exact
        integer per column.  Subtracting two baseline-carrying currents
        instead would leave an integer count an epsilon away from the
        lattice, enough to flip the engine's truncating sense amp.  The
        compiled plan's count stacks hold the same weights
        (:meth:`CrossbarMVMEngine.cell_weights`).
        """
        inputs = np.asarray(input_levels)
        if inputs.shape[-1] != self.params.rows:
            raise CrossbarError(
                f"expected {self.params.rows} inputs, got {inputs.shape[-1]}"
            )
        if np.any(inputs < 0) or np.any(inputs >= self.params.input_levels):
            raise CrossbarError(
                f"input levels outside [0, {self.params.input_levels})"
            )
        return inputs.astype(np.float64) @ self.count_weights(with_noise)
