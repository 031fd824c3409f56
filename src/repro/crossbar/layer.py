"""One mapped weight layer: its programmed tile grid and what is read
from it.

PRIME programs and fires a mapped layer as one unit: a ``row_blocks ×
col_blocks`` grid of FF mat pairs, each with its drivers and sense amps
(§III-E), here programmed
:class:`~repro.crossbar.engine.CrossbarMVMEngine` instances (engines in
one tile row share input rows; engines in one tile column share output
columns).  :class:`ProgrammedLayer` holds that grid and everything read
from it:

* the weight format, and the calibration frozen on first use (input
  format and SA output shift), so reusing a programmed layer skips
  recalibration;
* the grid checks, and the state token (:attr:`~ProgrammedLayer.token`)
  that :meth:`~ProgrammedLayer.invalidate` renews after any change to
  the cells.  The layer holds no weight stack: the compiled plan's
  weight step (:mod:`repro.perf.plan`) builds its own from what each
  engine's cells hold (:meth:`CrossbarMVMEngine.cell_weights`) and
  drops it when the token moves;
* the writes a deployed layer takes after programming, retention drift
  (:meth:`~ProgrammedLayer.apply_drift`) and the rewrite that recovers
  from it (:meth:`~ProgrammedLayer.reprogram`): each visits the arrays
  engine by engine in tile order, positive array first, and renews the
  token, so nothing outside the crossbar and device packages touches a
  cell;
* the grid's state: :attr:`~ProgrammedLayer.on_lattice` (every
  noise-free count an integer), and whether a call samples read noise
  anywhere (:meth:`~ProgrammedLayer.samples_read_noise`);
* the noise stream a serving micro-batch draws from
  (:meth:`~ProgrammedLayer.noise_stream`);
* the SA-window calibration
  (:meth:`~ProgrammedLayer.calibrate_output_shift`), one exact host
  matmul per tile row of ``programmed_weights``;
* :meth:`~ProgrammedLayer.mvm_batch`, the per-engine tile walk: one
  :meth:`CrossbarMVMEngine.mvm_batch` call per tile, each reading the
  rows its engine uses through the engine's cell weights.  It is the
  semantic reference the plan is tested against, and runs only under
  ``PRIME_FUSED=0`` (or when a caller walks on purpose, as the command
  stream does);
* :meth:`~ProgrammedLayer.charge`, which charges the hardware firings
  the plan's host matmuls replace — ``mvm.invocations``, model time
  and energy, per-engine invocation counts, and sense-amp conversions
  — through the helper the walk's engines count with
  (:func:`repro.crossbar.engine.charge_firings`);
* the memoised compiled plan (:attr:`~ProgrammedLayer.compiled_plan`).

Thread safety: every read is re-entrant over one programmed copy.  The
walk only reads the engines' state, read noise comes from the calling
thread's scoped stream when it has one
(:func:`repro.device.cell.scoped_noise_stream`), and the engines'
counters change only under :data:`repro.crossbar.engine.COUNTER_LOCK`.
Drift and reprogramming write the cells; the caller keeps reads out
while they run (serving takes its state's write lock).
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.engine import CrossbarMVMEngine, charge_firings
from repro.errors import CrossbarError
from repro.precision.dynamic_fixed_point import DynamicFixedPoint
from repro.resilience.policy import ResiliencePolicy

__all__ = ["ProgrammedLayer"]


class ProgrammedLayer:
    """One mapped weight layer's programmed tile grid, its weight
    format, its frozen calibration, and the walk and accounting over
    the grid.

    ``tiles`` is the grid of programmed engines the executor builds;
    every engine must be programmed before the layer is built.  The
    layer reads their programmed cells and charges their counters, so
    the compiled plan's inline steps and the walk stay interchangeable,
    and it is the one writer of their cells once programmed (drift and
    reprogramming).  ``remapped_tiles`` counts
    the tiles the executor re-programmed onto spare pairs because their
    first engine came up degraded (resilience only).
    """

    def __init__(
        self,
        tiles: list[list[CrossbarMVMEngine]],
        w_fmt: DynamicFixedPoint | None,
        remapped_tiles: int = 0,
    ) -> None:
        if not tiles or not tiles[0]:
            raise CrossbarError(
                "a programmed layer needs a non-empty tile grid"
            )
        width = len(tiles[0])
        if any(len(row) != width for row in tiles):
            raise CrossbarError("tile grid must be rectangular")
        first = tiles[0][0]
        for row in tiles:
            for engine in row:
                if engine.rows_used == 0:
                    raise CrossbarError(
                        "every engine must be programmed before its "
                        "layer is built"
                    )
                if engine.spec != first.spec:
                    raise CrossbarError(
                        "all engines in a layer must share one "
                        "composing spec"
                    )
                if (
                    engine.params.rows != first.params.rows
                    or engine.params.cols != first.params.cols
                ):
                    raise CrossbarError(
                        "all engines in a layer must share one physical "
                        "geometry"
                    )
        for row in tiles:
            if any(e.rows_used != row[0].rows_used for e in row):
                raise CrossbarError(
                    "engines in one tile row must share rows_used"
                )
        for cb in range(width):
            if any(
                row[cb].cols_used != tiles[0][cb].cols_used for row in tiles
            ):
                raise CrossbarError(
                    "engines in one tile column must share cols_used"
                )
        self.tiles = [list(row) for row in tiles]
        #: The engines in tile order, row by row.
        self.engines = [engine for row in self.tiles for engine in row]
        self.w_fmt = w_fmt
        self.remapped_tiles = remapped_tiles
        self.in_fmt: DynamicFixedPoint | None = None
        self.output_shift: int | None = None
        #: The memoised CompiledPlan: a network's on its first layer
        #: (recompiled when ``CompiledPlan.matches`` fails), or this
        #: layer's own one-step plan (:func:`repro.perf.plan.run_layer`).
        self.compiled_plan = None
        self.row_blocks = len(self.tiles)
        self.col_blocks = width
        self.spec = first.spec
        self.rows_used = [row[0].rows_used for row in self.tiles]
        self.cols_used = [e.cols_used for e in self.tiles[0]]
        self.total_rows = sum(self.rows_used)
        self.total_cols = sum(self.cols_used)
        rng = first.pair.positive.rng
        self._rng = rng
        self._rng_shared = all(
            cells.rng is rng for cells in self._cell_arrays()
        )
        #: Identity token of the engines' programmed state, renewed by
        #: :meth:`invalidate`: a stack built under one token is stale
        #: under the next.
        self.token = object()

    def reset_calibration(self) -> None:
        """Forget the frozen input format and output shift."""
        self.in_fmt = None
        self.output_shift = None

    # -- grid state ---------------------------------------------------

    @property
    def on_lattice(self) -> bool:
        """All engines' cells sit on the level lattice
        (:attr:`CrossbarMVMEngine.on_lattice`), so every noise-free
        count is an integer."""
        return all(e.on_lattice for e in self.engines)

    def samples_read_noise(self, with_noise: bool) -> bool:
        """Whether this call actually samples read noise anywhere
        (:meth:`DifferentialPair.samples_read_noise`)."""
        return with_noise and any(
            e.pair.samples_read_noise(True) for e in self.engines
        )

    def invalidate(self) -> None:
        """Renew :attr:`token` after reprogramming, drift, or any other
        in-place change to the engines' cells."""
        self.token = object()

    # -- writes after programming -----------------------------------

    def _cell_arrays(self):
        """Every engine's cell arrays in write order: engine by engine
        in tile order, the positive array first."""
        for engine in self.engines:
            yield engine.pair.positive
            yield engine.pair.negative

    def apply_drift(
        self, magnitude: float, rng: np.random.Generator
    ) -> None:
        """Decay every cell's conductance toward HRS
        (:meth:`~repro.device.cell.CellArray.apply_drift`), drawing
        each array's rates from ``rng`` in write order, and renew
        :attr:`token` so the plan's stacks over the old cells retire."""
        for cells in self._cell_arrays():
            cells.apply_drift(magnitude, rng)
        self.invalidate()

    def reprogram(self, verify: ResiliencePolicy | None = None) -> None:
        """Rewrite every array from the levels it holds, in write
        order, and renew :attr:`token`.

        Drift decays conductances but never the programmed levels, so
        this restores the programmed state.  Open loop
        (:meth:`~repro.device.cell.CellArray.reprogram`), an exact
        array returns to its derived state, and an array programmed
        with variation draws a fresh perturbation from its generator.
        With ``verify``, each array is rewritten through the policy's
        program-and-verify loop over its engine's programmed region,
        ``[:rows_used, :2 * slots_used]``: the cells the engine's
        verified write and its spare slots verified, and no others.
        """
        if verify is None:
            for cells in self._cell_arrays():
                cells.reprogram()
        else:
            for engine in self.engines:
                region = np.zeros(
                    (engine.params.rows, engine.params.cols), dtype=bool
                )
                region[: engine.rows_used, : 2 * engine.slots_used] = True
                for cells in (engine.pair.positive, engine.pair.negative):
                    cells.program_levels(
                        cells.levels, verify=verify, verify_mask=region
                    )
        self.invalidate()

    def noise_stream(self, seed: int) -> np.random.Generator:
        """A fresh generator of the engines' shared kind, seeded with
        ``seed``: the stream a noisy micro-batch draws from under
        :func:`~repro.device.cell.scoped_noise_stream`, so its results
        are a pure function of ``seed`` and the inputs, whichever
        thread serves it, and the shared generator never moves.
        """
        if self._rng is None or not self._rng_shared:
            raise CrossbarError(
                "engines do not share one RNG; a per-batch noise "
                "stream is undefined"
            )
        return np.random.Generator(type(self._rng.bit_generator)(seed))

    @property
    def calibration_dtype(self) -> type:
        """The float dtype :meth:`calibrate_output_shift` multiplies in:
        float32 while every product and partial sum of the calibration
        matmul stays inside its ``2**24`` contiguous-integer range,
        else float64.  Either holds every input code exactly, so a
        caller may quantise the codes straight into it."""
        spec = self.spec
        bound = (
            max(self.rows_used)
            * ((1 << spec.pin) - 1)
            * ((1 << spec.pw) - 1)
        )
        return np.float32 if bound < (1 << 24) else np.float64

    def calibrate_output_shift(
        self, codes: np.ndarray, calibration_samples: int = 64
    ) -> int:
        """Choose the layer's SA output window from a code prefix.

        The SA reference is tuned offline so that the largest observed
        per-tile-row partial result still fits in the Po-bit output
        register — the standard calibration step of dot-product
        engines, enabled by PRIME's reconfigurable SA.  Costs one host
        matmul per tile row, over the row's ``programmed_weights``
        assembled once; no engines fire.

        NumPy has no integer BLAS, so the matmul runs in float and is
        exact: every product and partial sum is an integer of magnitude
        at most ``rows * (2**pin - 1) * (2**pw - 1)``.  Below float32's
        ``2**24`` contiguous-integer range (``256 * 63 * 255``, under
        ``2**22``, at the default geometry) it runs in float32, in any
        summation order; otherwise in float64
        (:attr:`calibration_dtype`).  Codes already in that dtype are
        used as they are, without a copy.  Dead columns count as zero,
        since sparing zeroes them in ``programmed_weights``.
        """
        dtype = self.calibration_dtype
        sample = np.asarray(codes)[:calibration_samples].astype(
            dtype, copy=False
        )
        peak = 1
        off = 0
        for rb, row in enumerate(self.tiles):
            block = sample[:, off : off + self.rows_used[rb]]
            row_weights = np.concatenate(
                [engine.programmed_weights for engine in row],
                axis=1,
                dtype=dtype,
            )
            partial = block @ row_weights
            peak = max(peak, int(partial.max()), -int(partial.min()))
            off += self.rows_used[rb]
        return max(0, peak.bit_length() - self.spec.po)

    # -- the walk -----------------------------------------------------

    def mvm_batch(
        self,
        codes: np.ndarray,
        with_noise: bool = True,
        output_shift: int | None = None,
    ) -> np.ndarray:
        """Layer-level MVM over a ``(batch, total_rows)`` code matrix by
        the per-engine tile walk, the semantic reference.

        Returns the ``(batch, total_cols)`` signed integer outputs: each
        tile digitised at ``output_shift`` and row blocks summed.  The
        compiled plan runs every layer inline instead
        (:func:`repro.perf.plan.run_layer` runs a single layer) and
        calls this only under ``PRIME_FUSED=0``.
        """
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != self.total_rows:
            raise CrossbarError(
                f"expected (batch, {self.total_rows}) codes, got "
                f"{codes.shape}"
            )
        if np.any(codes < 0) or np.any(codes >= (1 << self.spec.pin)):
            raise CrossbarError(
                f"inputs outside unsigned {self.spec.pin}-bit range"
            )
        shift = (
            self.spec.target_shift if output_shift is None else output_shift
        )
        return self._per_engine(codes, with_noise, shift)

    def _per_engine(
        self, codes: np.ndarray, with_noise: bool, shift: int
    ) -> np.ndarray:
        """The original tile walk: one engine call per tile."""
        outputs = None
        off = 0
        for rb, tile_row in enumerate(self.tiles):
            block = codes[:, off : off + self.rows_used[rb]]
            cols_out = [
                engine.mvm_batch(
                    block, with_noise=with_noise, output_shift=shift
                )
                for engine in tile_row
            ]
            row_result = np.concatenate(cols_out, axis=1)
            outputs = row_result if outputs is None else outputs + row_result
            off += self.rows_used[rb]
        return outputs

    # -- accounting ---------------------------------------------------

    def charge(self, batch: int, output_shift: int) -> None:
        """Charge the hardware firings the plan's inline step replaced:
        ``batch`` vectors at ``output_shift``, counted as the per-engine
        walk counts them (:func:`~repro.crossbar.engine.charge_firings`).
        """
        charge_firings(self.engines, batch, output_shift)
