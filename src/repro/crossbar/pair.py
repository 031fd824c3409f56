"""Differential crossbar pair + analog subtraction unit (Fig. 4 B).

Signed weight matrices are implemented as two crossbar arrays — one
programmed with the positive weights and one with the negative-weight
magnitudes — sharing the same input port.  The modified column
multiplexer subtracts the negative array's bitline current from the
positive array's before the sigmoid unit and the SA, which also cancels
the common HRS-baseline current exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrossbarError
from repro.device import FaultMap
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import PairProgramReport
from repro.crossbar.array import ArrayMode, CrossbarArray


class DifferentialPair:
    """Positive/negative crossbar pair computing signed analog MVMs."""

    def __init__(
        self,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
        fault_maps: tuple[FaultMap, FaultMap] | None = None,
        track_endurance: bool = False,
    ) -> None:
        self.params = params
        pos_faults, neg_faults = fault_maps if fault_maps else (None, None)
        self.positive = CrossbarArray(
            params, rng=rng, fault_map=pos_faults,
            track_endurance=track_endurance,
        )
        self.negative = CrossbarArray(
            params, rng=rng, fault_map=neg_faults,
            track_endurance=track_endurance,
        )

    def set_mode(self, mode: ArrayMode) -> None:
        """Both halves morph together."""
        self.positive.set_mode(mode)
        self.negative.set_mode(mode)

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
            self.positive.program_weight_levels(pos)
            self.negative.program_weight_levels(neg)
            return None
        if verify_mask is None:
            verify_mask = np.ones(signed_levels.shape, dtype=bool)
        report_pos = self.positive.program_weight_levels(
            pos, verify=verify, verify_mask=verify_mask
        )
        report_neg = self.negative.program_weight_levels(
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
        report_pos = self.positive.program_masked_weight_levels(
            mask, pos, verify=verify
        )
        report_neg = self.negative.program_masked_weight_levels(
            mask, neg, verify=verify
        )
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
                self.positive.cells.readback_levels()
            ).astype(np.int64)
            achieved_neg = np.rint(
                self.negative.cells.readback_levels()
            ).astype(np.int64)
            fix_via_neg = bad_pos & ~bad_neg
            fix_via_pos = bad_neg & ~bad_pos
            if fix_via_neg.any():
                target = np.clip(achieved_pos - desired, 0, limit)
                repair = self.negative.program_masked_weight_levels(
                    fix_via_neg, target, verify=policy
                )
                report_neg.absorb(repair)
                compensated += int(fix_via_neg.sum())
            if fix_via_pos.any():
                target = np.clip(desired + achieved_neg, 0, limit)
                repair = self.positive.program_masked_weight_levels(
                    fix_via_pos, target, verify=policy
                )
                report_pos.absorb(repair)
                compensated += int(fix_via_pos.sum())
        achieved = (
            self.positive.cells.readback_levels()
            - self.negative.cells.readback_levels()
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
        return (
            self.positive.cells.on_lattice
            and self.negative.cells.on_lattice
        )

    def count_weights(self) -> np.ndarray:
        """Each cell pair's signed weight in count units, as a
        noise-free read sees it: the integer ``effective_levels``
        difference on the level lattice (:attr:`on_lattice`), each
        pair's ``(G+ - G-) / g_step`` off it (variation, drift, wire
        resistance).  The HRS baseline cancels per cell pair."""
        positive, negative = self.positive.cells, self.negative.cells
        if self.on_lattice:
            return positive.effective_levels - negative.effective_levels
        dev = self.params.device
        g_step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        return (positive.conductances() - negative.conductances()) / g_step

    def analog_mvm_counts(
        self, input_levels: np.ndarray, with_noise: bool = True
    ) -> np.ndarray:
        """Signed count-domain MVM: positive minus negative currents.

        The HRS baseline is identical in both halves and cancels in the
        analog subtraction, so the result directly estimates
        ``sum_i a_i * signed_level_i`` per column.

        A noise-free read subtracts per cell pair before any input
        meets the weights, so it sums the same products as the compiled
        plan's count stacks (:meth:`CrossbarMVMEngine.cell_weights`).
        On the level lattice the pair answers through
        :meth:`CrossbarArray.exact_mvm_counts`, so the counts land
        exactly on the integer lattice; off it, ``input_levels @
        count_weights()``.  Subtracting two baseline-carrying currents
        instead leaves an exactly integer count (a cell pair off the
        lattice can still hold an integer, as the unattenuated cell
        under wire resistance does) an epsilon away from it, enough to
        flip the engine's truncating sense amp.
        """
        if self._effectively_noise_free(with_noise):
            if self.on_lattice:
                return self.positive.exact_mvm_counts(
                    input_levels
                ) - self.negative.exact_mvm_counts(input_levels)
            op = "analog_mvm_counts"
            self.negative._require(ArrayMode.COMPUTE, op)
            inputs = self.positive._checked_compute_inputs(input_levels, op)
            return inputs.astype(np.float64) @ self.count_weights()
        pos = self.positive.analog_mvm_counts(
            input_levels, with_noise=with_noise
        )
        neg = self.negative.analog_mvm_counts(
            input_levels, with_noise=with_noise
        )
        return pos - neg

    def _effectively_noise_free(self, with_noise: bool) -> bool:
        """Whether an MVM with this noise flag is deterministic."""
        if not with_noise:
            return True
        cells = self.positive.cells
        return (
            cells.rng is None
            or self.params.device.read_noise_sigma <= 0.0
        )

    def subtraction_energy(self, columns: int | None = None) -> float:
        """Energy of the analog subtraction units for one conversion."""
        cols = self.params.logical_cols if columns is None else columns
        return cols * self.params.e_sub_sigmoid
