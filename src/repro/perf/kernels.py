"""Fused layer-level crossbar kernels.

The per-engine functional path walks a mapped layer's tile grid in
Python: one :meth:`CrossbarMVMEngine.mvm_batch` call per tile, each
padding its inputs to the full physical array and round-tripping
through the conductance domain.  :class:`FusedLayerKernel` is the
layer-level view of that grid which the faster paths share:

* the fuse decision (:meth:`~FusedLayerKernel.can_fuse`) and the state
  token (:attr:`~FusedLayerKernel.token`) that
  :meth:`~FusedLayerKernel.invalidate` renews after reprogramming or
  drift.  The kernel holds no count-domain weight stack: the compiled
  plan's weight step (:mod:`repro.perf.plan`) builds its own, once per
  row block, from what each engine's cells hold
  (:meth:`CrossbarMVMEngine.cell_weights`), in the layout its matmuls
  read, and drops it when the token moves.  Every noise-free call
  fuses there.  When every engine is on the level lattice
  (:attr:`~FusedLayerKernel.on_lattice`: ideal, or stuck-at faults on
  a noise-free device) the stack holds integer weight halves, so the
  noiseless counts are integers, exact in float, and the plan is
  bit-identical to the walk, which itself answers through
  :meth:`CrossbarArray.exact_mvm_counts` there.  Off the lattice
  (programming variation, drift, wire resistance) an engine's columns
  hold each cell pair's differential weight ``(G+ - G-) / g_step`` in
  float64, the weights the walk's noise-free read multiplies too
  (:meth:`DifferentialPair.count_weights`): both paths sum the same
  products, each in its own matmul's order, so a count that is an
  exact integer (a lone unattenuated cell under wire resistance) is
  exact on both;
* the SA-window calibration
  (:meth:`~FusedLayerKernel.calibrate_output_shift`), one exact host
  matmul per tile row of ``programmed_weights``;
* the pair conductances for read noise: :meth:`mvm_batch` draws the
  noise for all tiles from one vectorised Philox call, seeded from the
  stream the cells' own read-noise draws come from
  (:func:`repro.device.cell.read_noise_rng`: the engines' shared
  generator, or the calling thread's scoped stream), so results
  reproduce under a fixed seed, and digitises the four partial-product
  planes (HH/HL/LH/LL) in one pass through the SA transfer function
  every tier shares (:func:`repro.crossbar.sense.digitise`).

Every other :meth:`~FusedLayerKernel.mvm_batch` call walks the
engines, the semantic reference; ``PRIME_FUSED=0`` routes every call
there.  Telemetry semantics are preserved: ``mvm.invocations``,
model-time and energy counters, per-engine invocation counts, and
sense-amp conversion counts all reflect the hardware firings the fused
math replaces, not the host matmuls that compute them
(:meth:`~FusedLayerKernel.charge`).

Thread safety: every path is re-entrant over one programmed copy.  The
math only reads the engines' state, lazily built stacks are published
whole (a racing duplicate build is identical), read noise comes from
the caller's scoped stream, and the engines' counters change only
under :data:`repro.crossbar.engine.COUNTER_LOCK`.
"""

from __future__ import annotations

import os

import numpy as np

from repro import telemetry
from repro.crossbar.engine import COUNTER_LOCK
from repro.crossbar.sense import digitise, part_window
from repro.device.cell import read_noise_rng
from repro.errors import CrossbarError
from repro.precision.composing import split_unsigned

__all__ = ["fused_enabled", "FusedLayerKernel"]


def fused_enabled() -> bool:
    """Whether the fused layer fast path is enabled (``PRIME_FUSED``)."""
    return os.environ.get("PRIME_FUSED", "1") != "0"


class FusedLayerKernel:
    """Evaluates one mapped layer's tile grid with fused NumPy ops.

    ``tiles`` is the ``row_blocks × col_blocks`` grid of programmed
    :class:`~repro.crossbar.engine.CrossbarMVMEngine` instances the
    executor builds (engines in one tile row share input rows; engines
    in one tile column share output columns).  The kernel never owns
    the engines — it reads their programmed state and charges their
    counters, so the fused and per-engine paths stay interchangeable.
    """

    def __init__(self, tiles) -> None:
        if not tiles or not tiles[0]:
            raise CrossbarError("fused kernel needs a non-empty tile grid")
        width = len(tiles[0])
        if any(len(row) != width for row in tiles):
            raise CrossbarError("tile grid must be rectangular")
        first = tiles[0][0]
        for row in tiles:
            for engine in row:
                if engine.rows_used == 0:
                    raise CrossbarError(
                        "every engine must be programmed before fusing"
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
        self.row_blocks = len(self.tiles)
        self.col_blocks = width
        self.spec = first.spec
        self.params = first.params
        self.rows_used = [row[0].rows_used for row in self.tiles]
        self.cols_used = [e.cols_used for e in self.tiles[0]]
        self.total_rows = sum(self.rows_used)
        self.total_cols = sum(self.cols_used)
        rng = first.pair.positive.cells.rng
        self._rng = rng
        self._rng_shared = all(
            e.pair.positive.cells.rng is rng
            and e.pair.negative.cells.rng is rng
            for row in self.tiles
            for e in row
        )
        #: Identity token of the engines' programmed state, renewed by
        #: :meth:`invalidate`: a stack built under one token is stale
        #: under the next.
        self.token = object()
        self._g_stacks: tuple[np.ndarray, np.ndarray] | None = None
        self._half_idx: np.ndarray | None = None

    # -- fuse decision ------------------------------------------------

    @property
    def on_lattice(self) -> bool:
        """All engines' cells sit on the level lattice
        (:attr:`CrossbarMVMEngine.on_lattice`), so every noise-free
        count is an integer."""
        return all(e.on_lattice for row in self.tiles for e in row)

    def _noisy(self, with_noise: bool) -> bool:
        """Whether this call actually samples read noise anywhere."""
        return (
            with_noise
            and self.params.device.read_noise_sigma > 0.0
            and any(
                e.pair.positive.cells.rng is not None
                for row in self.tiles
                for e in row
            )
        )

    def can_fuse(self, with_noise: bool) -> bool:
        """Whether a fused evaluation preserves the engine semantics.

        A noise-free call always fuses: the compiled plan's inline step
        reads each engine's count weights from what its cells hold
        (:meth:`CrossbarMVMEngine.cell_weights`).  A noisy call fuses
        through the stacked analog path, which reads every engine's
        logical columns at their unspared slots and covers every tile
        with one derived seed: no engine may route its outputs through
        resilience post-processing (column sparing or masking), and all
        engines must share one RNG.  Otherwise it walks the engines.
        """
        if not self._noisy(with_noise):
            return True
        return (
            not any(e.remapped for row in self.tiles for e in row)
            and self._rng_shared
            and self._rng is not None
        )

    def invalidate(self) -> None:
        """Renew :attr:`token` and drop the cached conductance stacks
        after reprogramming, drift, or any other in-place change to the
        engines' cells."""
        self.token = object()
        self._g_stacks = None

    # -- noise stream -------------------------------------------------

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

    # -- execution ----------------------------------------------------

    def mvm_batch(
        self,
        codes: np.ndarray,
        with_noise: bool = True,
        output_shift: int | None = None,
        fused: bool | None = None,
    ) -> np.ndarray:
        """Layer-level MVM over a ``(batch, total_rows)`` code matrix.

        Returns the ``(batch, total_cols)`` signed integer outputs the
        per-engine tile walk would produce: each tile digitised at
        ``output_shift`` and row blocks summed.  A call that samples
        read noise takes the fused analog path when ``fused`` allows
        it (``None``: when ``PRIME_FUSED`` does and :meth:`can_fuse`
        holds); every other call walks the engines.  Noise-free layers
        run fused in the compiled plan's inline step, not here
        (:func:`repro.perf.plan.run_layer` runs a single layer).
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
        if fused is None:
            fused = fused_enabled() and self.can_fuse(with_noise)
        if not (fused and self._noisy(with_noise)):
            return self._per_engine(codes, with_noise, shift)
        self.charge(codes.shape[0], shift)
        return self._accumulate(self._analog_planes(codes), shift)

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
        summation order; otherwise in float64.  Dead columns count as
        zero, since sparing zeroes them in ``programmed_weights``.
        """
        spec = self.spec
        bound = (
            max(self.rows_used)
            * ((1 << spec.pin) - 1)
            * ((1 << spec.pw) - 1)
        )
        dtype = np.float32 if bound < (1 << 24) else np.float64
        sample = np.asarray(codes)[:calibration_samples].astype(dtype)
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
        return max(0, peak.bit_length() - spec.po)

    # -- fallback -----------------------------------------------------

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

    # -- fused part-count planes --------------------------------------

    def _stacked_inputs(self, codes: np.ndarray) -> np.ndarray:
        """(row_blocks, 2*batch, phys_rows) drive-phase stack.

        Rows [:batch] carry the high input halves, rows [batch:] the
        low halves — the same hi-then-lo packing the engine uses — so
        both phases of every row block evaluate in one batched matmul.
        """
        n = codes.shape[0]
        hi, lo = split_unsigned(codes.astype(np.int64), self.spec.pin)
        drive = np.zeros((self.row_blocks, 2 * n, self.params.rows))
        off = 0
        for rb, rows in enumerate(self.rows_used):
            drive[rb, :n, :rows] = hi[:, off : off + rows]
            drive[rb, n:, :rows] = lo[:, off : off + rows]
            off += rows
        return drive

    def _conductance_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """(row_blocks, phys_rows, col_blocks*phys_cols) pos/neg G."""
        stacks = self._g_stacks
        if stacks is None:
            rows, cols = self.params.rows, self.params.cols
            shape = (self.row_blocks, rows, self.col_blocks * cols)
            g_pos = np.zeros(shape)
            g_neg = np.zeros(shape)
            for rb, row in enumerate(self.tiles):
                for cb, engine in enumerate(row):
                    c0 = cb * cols
                    g_pos[rb, :, c0 : c0 + cols] = (
                        engine.pair.positive.cells.conductances()
                    )
                    g_neg[rb, :, c0 : c0 + cols] = (
                        engine.pair.negative.cells.conductances()
                    )
            stacks = self._g_stacks = (g_pos, g_neg)
        return stacks

    def _column_gather(self) -> np.ndarray:
        """``(2, total_cols)`` physical-column indices of the hi (row
        0) and lo (row 1) weight bitlines."""
        if self._half_idx is None:
            lanes = np.concatenate(
                [
                    cb * self.params.cols + 2 * np.arange(cols)
                    for cb, cols in enumerate(self.cols_used)
                ]
            )
            self._half_idx = np.stack([lanes, lanes + 1])
        return self._half_idx

    def _analog_planes(self, codes: np.ndarray) -> np.ndarray:
        """Noisy part counts through the stacked conductance tensors.

        Returns ``(row_blocks, 2, batch, 2, total_cols)`` planes, drive
        phase and weight half as the two length-2 axes.  The read
        noise for every tile comes from one vectorised draw of a Philox
        stream keyed by a seed pulled once from
        :func:`~repro.device.cell.read_noise_rng`: each tile's noise is
        a fixed slice of that stream, so a seeded run reproduces
        exactly while consuming one value of the read-noise stream per
        fused call.
        """
        params = self.params
        dev = params.device
        g_pos, g_neg = self._conductance_stacks()
        v_step = dev.v_read / (params.input_levels - 1)
        g_step = (dev.g_on - dev.g_off) / (dev.mlc_levels - 1)
        n = codes.shape[0]
        drive = self._stacked_inputs(codes)
        sigma = dev.read_noise_sigma
        rng = read_noise_rng(self._rng)
        seed = int(rng.integers(np.iinfo(np.int64).max))
        noise = np.random.Generator(np.random.Philox(seed)).standard_normal(
            (2,) + g_pos.shape
        )
        g_p = np.clip(g_pos * (1.0 + sigma * noise[0]), 0.0, None)
        g_n = np.clip(g_neg * (1.0 + sigma * noise[1]), 0.0, None)
        counts = (drive * v_step) @ (g_p - g_n) / (v_step * g_step)
        return counts.reshape(self.row_blocks, 2, n, -1)[
            ..., self._column_gather()
        ]

    # -- digitisation and accounting ----------------------------------

    def _accumulate(
        self, parts: np.ndarray, output_shift: int
    ) -> np.ndarray:
        """Digitise the ``(row_blocks, 2, batch, 2, total_cols)`` float64
        planes of :meth:`_analog_planes` in one broadcast pass and sum
        them, then the row blocks — identical to digitising per tile
        and summing the tile rows.  The drive phase and the weight half
        are the two length-2 axes.

        The planes digitise in place through the SA transfer function
        (:func:`~repro.crossbar.sense.digitise`) at the layer's
        :func:`~repro.crossbar.sense.part_window`, which matches the
        engine bit for bit for integer and continuous counts alike;
        parts entirely below the SA window get a zero post-scale and
        vanish, matching the engine's skip.
        """
        pre, post = part_window(self.spec, output_shift)
        grid = (1, 2, 1, 2, 1)
        digitise(
            parts,
            pre.reshape(grid),
            post.reshape(grid),
            self.spec.po,
            out=parts,
        )
        total = parts.sum(axis=(1, 3))
        return total.astype(np.int64).sum(axis=0)

    def charge(self, batch: int, output_shift: int) -> None:
        """Charge the hardware firings fused math replaced: ``batch``
        vectors at ``output_shift``, here or in the plan's inline step.

        Matches the per-engine path exactly: every engine fires once
        per input vector, and its SA converts one value per active
        part per sensed column slot (spares included) per vector.
        """
        pre, _ = part_window(self.spec, output_shift)
        active = int(np.count_nonzero(pre))
        with COUNTER_LOCK:
            for row in self.tiles:
                for engine in row:
                    engine.mvm_invocations += batch
                    engine.sense.conversions += (
                        active * batch * engine.slots_used
                    )
        if not telemetry.enabled():
            return
        firings = batch * self.row_blocks * self.col_blocks
        telemetry.count("mvm.invocations", firings)
        telemetry.count(
            "mvm.model_time_ns", firings * self.params.t_full_mvm * 1e9
        )
        telemetry.count(
            "mvm.energy_nj", firings * 2.0 * self.params.e_full_mvm * 1e9
        )
