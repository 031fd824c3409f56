"""Plan-compiled megakernel: how programmed crossbars run a forward.

:meth:`PrimeExecutor.run_functional` executes every chunk through a
:class:`CompiledPlan`, which lowers a programmed
:class:`~repro.crossbar.layer.ProgrammedLayer` chain into a flat step
list once, at deploy time, instead of interpreting the network layer
by layer.  The plan reads each layer's tile grid, token, calibration
and firing accounting from the layer itself and keeps only what it
builds from them.  The in-situ
trainer and the SNN backend run their dense layers one at a time
through the same weight step (:func:`run_layer`), so every count in
the package, with or without read noise, comes from the one path
below:

* the chain may be uncalibrated: each weight step freezes its layer's
  input format and SA output shift the first time it runs, in layer
  order, from the first chunk's ``CALIBRATION_SAMPLES`` prefix
  (:func:`freeze_calibration`), and only then bakes them into
  constants — so a fresh network runs its very first chunk compiled;
* each weight step owns its layer's noise-free count stacks and builds
  them once, on its first noise-free inline run, in the layout its
  matmuls read (full 256-row blocks as one batched tensor, short tail
  blocks as right-sized matrices, conv blocks transposed; see
  :meth:`_WeightStep._build_stacks`) from what each engine's cells
  hold: engines whose cells hold exactly their ``programmed_weights``
  share one vectorised split per row block, every other engine writes
  its own columns (:meth:`CrossbarMVMEngine.cell_weights`).  A step
  that only delegates builds none, and
  :meth:`ProgrammedLayer.invalidate` (reprogramming, drift) renews the
  layer's token, which retires the step and its stacks;
* a call that samples read noise runs the same inline path over a
  stack of its own: every engine's cells read with noise, engine by
  engine in tile order, so each array draws its noise per call, from
  :func:`~repro.device.cell.read_noise_rng`, in the order the walk
  draws it (:meth:`_WeightStep._stacks`, inside the ``plan.counts``
  span).  That stack lives in the calling thread's scratch store and
  is rewritten by its next noisy call, never cached on the step or
  shared between threads;
* the frozen calibration formats are baked into scalar constants
  (``1/resolution``, saturation bounds, and each partial product's SA
  window from :func:`~repro.crossbar.sense.part_window`), so no format
  objects are touched on the hot path;
* quantisation, the hi/lo drive split, digitisation, and the output
  scale all run in place on preallocated buffers that persist across
  chunks and batches of the same width, one set per executing thread;
* conv layers quantise and split each padded input pixel once, then
  build the integer-code drive with one slice copy per kernel offset
  (:func:`_gather_patches`) — no float64 patch matrix — and compute
  ``W^T @ drive`` so the long vector axis stays innermost through the
  count planes and the digitisation;
* micro-batches (``<= PACKED_MAX_VECS`` vectors) of wide dense layers
  (``>= PACKED_MIN_COLS`` columns) evaluate through a *packed* weight
  stack that fuses the hi/lo weight halves into one float32 field
  pair — halving the streamed weight bytes in the latency regime
  where the matmul is bandwidth-bound;
* the SA window rides on the operands: Eq. 8 gives part ``[p, h]``
  the weight ``2**(e_in[p] + e_w[h])`` (``e_in = (pin/2, 0)`` per drive
  phase, ``e_w = (pw/2, 0)`` per weight half), so the trimmed and conv
  stacks carry ``2**e_w`` on their high-half columns and the drive
  phases ``2**(e_in - shift)``.  Count planes leave the matmul already
  scaled by ``F = 2**(e_in + e_w - shift)``; the packed path, whose
  fields leave no room for it, multiplies its small planes by ``F``
  instead.  :func:`~repro.crossbar.sense.digitise` then applies only
  the residual window ``pre / F`` and ``post``, both all ones (and
  skipped) when ``pin/2 + pw/2 <= shift < part_full_bits`` — every
  bench layer — and the digitised planes sum in the count dtype
  whenever a compile-time bound keeps that sum exact at every shift.

Exactness: with noise off on arrays on the level lattice (ideal, or
stuck-at faults on a noise-free device) every intermediate is an
integer inside the float dtype's contiguous-integer range (the step
picks float32 only when the counts and every digitised value at every
shift fit it, :func:`_count_dtype`, and no call can draw read noise
into its stack) times a power of two
from the fold, so the compiled path is bit-identical to the per-engine
walk: each folded count is the unfolded count times ``2**k`` exactly,
and float32 sgemm stays exact in any summation order and at any BLAS
thread count.  The packed stack keeps two 12-bit-separated integer
fields whose dot products stay below ``2**24`` per 16-row sub-block,
so float32 matmul and ``rint`` field extraction are exact too.  When
any engine is off the lattice (programming variation, drift, wire
resistance), or a call can draw read noise, the step's stacks are
float64, and those columns hold differential cell weights ``(G+ -
G-) / g_step``, the weights the walk's read multiplies
(:meth:`DifferentialPair.count_weights`); the same trimmed inline path
runs them (never the packed one), and the quiet on-lattice engines'
columns keep their exact integers.  Scaling both operands of the
float64 matmul by powers of two scales every product and partial sum
exactly, so it returns the unfolded counts times ``2**k`` bit for bit
(no factor is below ``2**-full_bits``, about ``2**-22`` at the default
widths, far from float64's subnormal range).  Every path digitises
through the one SA transfer function,
:func:`~repro.crossbar.sense.digitise`.  Every weight step runs inline,
at every SA width, with or without read noise; seeded noise
reproduces, and telemetry counters match the walk's.  With
``fused=False`` (``PRIME_FUSED=0``, :func:`fused_enabled`) every
weight step delegates to :meth:`ProgrammedLayer.mvm_batch`, which
walks the engines: the semantic reference the plan is tested against.
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

from repro import telemetry
from repro.crossbar.layer import ProgrammedLayer
from repro.crossbar.sense import digitise, part_window
from repro.errors import ExecutionError
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential
from repro.perf import blas
from repro.precision.dynamic_fixed_point import DynamicFixedPoint

__all__ = [
    "CALIBRATION_SAMPLES",
    "fused_enabled",
    "freeze_calibration",
    "run_layer",
    "CompiledPlan",
]

#: Samples used to freeze a layer's input format and SA output window.
CALIBRATION_SAMPLES = 64

#: Row width of the packed small-batch weight sub-blocks.  16 rows of
#: (7 * 15)-bounded products keep each field below 2**11, so the two
#: fields separate exactly at a 2**12 spacing inside float32 (see
#: :meth:`_WeightStep._packed_stack`).
PACKED_SUB_ROWS = 16
#: Field separation of the packed weight stack.
PACKED_FIELD_BITS = 12
#: Largest vector count routed through the packed stack.  Beyond a few
#: vectors the matmul turns compute-bound and the un-packed trimmed
#: stacks win; at one or two vectors the packed stack halves the
#: streamed weight bytes (measured crossover on MLP-L: batch 2-4).
PACKED_MAX_VECS = 2
#: Fewest columns a dense step routes through the packed stack.  Its
#: per-row-block field extraction costs more than it saves on streamed
#: bytes on narrow layers: at one vector on a 2-CPU host the trimmed
#: stacks count the SNN's 785x64 and MLP-L's 501x10 layers 2-3x faster
#: and 785x256 1.5x faster, while from about 448 columns of 256-row
#: blocks (785x448, MLP-L's 1001x500 and wider) the packed stack wins.
PACKED_MIN_COLS = 448
#: Buffer sets cached per weight step (one per distinct batch width).
_MAX_BUFFER_SETS = 8


def fused_enabled() -> bool:
    """Whether weight steps run inline (``PRIME_FUSED``, default on);
    ``PRIME_FUSED=0`` walks the engines."""
    return os.environ.get("PRIME_FUSED", "1") != "0"


def _count_dtype(spec, rows: int):
    """Narrowest float dtype that holds every integer count exactly.

    A part count is a sum of ``rows`` products of an input half and a
    weight-half magnitude — an integer.  A digitised part is at most
    the SA's full scale ``2**po - 1`` times its post-scale, which peaks
    at ``2**HH`` (shift 0).  When both bounds stay below float32's
    2**24 contiguous-integer range, sgemm computes the exact same
    integers at twice the dgemm rate, and the plan digitises them in
    place exactly at every shift.
    """
    in_max = (1 << (spec.pin - spec.pin // 2)) - 1
    w_max = (1 << (spec.pw - spec.pw // 2)) - 1
    bound = rows * in_max * w_max
    sensed = ((1 << spec.po) - 1) << spec.part_exponents["HH"]
    return np.float32 if max(bound, sensed) < (1 << 24) else np.float64


def _conv_geometry(layer: Conv2D, act: np.ndarray) -> tuple[int, int]:
    """Output height and width of ``layer`` over image batch ``act``."""
    if act.ndim != 4:
        raise ExecutionError(
            f"conv layer expects image activations, got {act.shape}"
        )
    span = 2 * layer.pad - layer.kernel + 1
    return act.shape[1] + span, act.shape[2] + span


def _gather_patches(pix: np.ndarray, k: int, out: np.ndarray) -> None:
    """Fill the ``k*k*c`` patch rows of ``out`` from padded pixels.

    ``pix`` is channel-major, ``(c, ..., hp, wp)``; ``out`` is
    ``(rows, ..., oh, ow)``.  Patch row ``(di*k + dj)*c + ch`` of the
    vector at output pixel ``(i, j)`` reads pixel ``(ch, i+di, j+dj)``
    — the im2col row order the weight matrix is laid out in — so one
    slice copy per kernel offset fills ``c`` rows for every vector at
    once.
    """
    c = pix.shape[0]
    oh, ow = out.shape[-2:]
    for di in range(k):
        for dj in range(k):
            r = (di * k + dj) * c
            out[r : r + c] = pix[..., di : di + oh, dj : dj + ow]


def _input_codes(
    layer, act: np.ndarray, in_fmt: DynamicFixedPoint, dtype=np.int64
):
    """``(vectors, rows)`` input codes of one weight layer, in ``dtype``.

    A dense layer takes one vector per sample, a conv layer one per
    output pixel, each ending in the bias input 1.  Conv codes are
    quantised once per zero-padded input pixel, channel-major, and
    gathered by :func:`_gather_patches`; negative activations quantise
    to zero.  The walk and the command stream take int64 codes; the
    calibration quantises straight into its float matmul dtype, which
    holds every code (at most ``2**pin - 1``) exactly.
    """
    one = in_fmt.quantize_int(1.0)
    if isinstance(layer, Conv2D):
        oh, ow = _conv_geometry(layer, act)
        p, k = layer.pad, layer.kernel
        padded = np.pad(act, ((0, 0), (p, p), (p, p), (0, 0)))
        pix = in_fmt.quantize_int(
            np.clip(padded.transpose(3, 0, 1, 2), 0.0, None), dtype
        )
        codes = np.empty(
            (k * k * pix.shape[0] + 1, act.shape[0], oh, ow), dtype=dtype
        )
        _gather_patches(pix, k, codes)
        codes[-1] = one
        return codes.reshape(len(codes), -1).T
    vectors = act.reshape(act.shape[0], -1)
    codes = np.empty((len(vectors), vectors.shape[1] + 1), dtype=dtype)
    codes[:, :-1] = in_fmt.quantize_int(np.clip(vectors, 0.0, None), dtype)
    codes[:, -1] = one
    return codes


def freeze_calibration(layer, programmed, act: np.ndarray, pin: int) -> None:
    """Freeze a layer's input format and SA output shift on first use.

    Both come from the first :data:`CALIBRATION_SAMPLES` samples of
    ``act``, the layer's input (all of a sample's conv patches count as
    that sample).  The ``pin``-bit unsigned format covers the largest
    ``|value|`` among the prefix's input vectors: the prefix's own peak
    or the bias input 1, since every pixel of a stride-1 conv input
    lies in some patch and padding adds only zeros.  The output shift
    is the layer's calibration over the prefix's codes, quantised
    straight into the calibration's float dtype
    (:attr:`ProgrammedLayer.calibration_dtype`).  Later chunks and
    batches reuse both; out-of-range activations saturate, as a fixed
    hardware reference would.  Every weight step freezes through here
    on its first run, whichever path it then takes.
    """
    prefix = act[:CALIBRATION_SAMPLES]
    peak = max(float(np.max(np.abs(prefix), initial=0.0)), 1.0)
    in_fmt = DynamicFixedPoint.for_data(
        np.array([peak]), bits=pin, signed=False
    )
    codes = _input_codes(
        layer, prefix, in_fmt, programmed.calibration_dtype
    )
    programmed.output_shift = programmed.calibrate_output_shift(
        codes, calibration_samples=len(codes)
    )
    programmed.in_fmt = in_fmt


def _untraced(name: str, **attrs) -> telemetry.NullSpan:
    """:func:`repro.telemetry.span`'s no-op stand-in, handed to a step's
    inline phases while telemetry is off."""
    return telemetry.NULL_SPAN


class _ForwardStep:
    """A non-weight layer: plain ``layer.forward``."""

    __slots__ = ("layer",)

    def __init__(self, layer) -> None:
        self.layer = layer

    def valid(self) -> bool:
        return True

    def run(
        self, act: np.ndarray, with_noise: bool, store: dict, fused: bool
    ) -> np.ndarray:
        if telemetry.enabled():
            with telemetry.span(
                "plan.activation", layer=type(self.layer).__name__
            ):
                return self.layer.forward(act)
        return self.layer.forward(act)


class _WeightStep:
    """One mapped weight layer, lowered to preallocated array math.

    A step may be built over an uncalibrated layer.  Its first run
    *lowers* it: :func:`freeze_calibration` freezes the layer's input
    format and SA output shift from that chunk when the layer has none
    yet, and the step bakes them into scalar constants.  Two execution
    paths then share the quantisation front end:

    * ``inline`` — the count-domain math, fully in place, for every
      call of a fused plan, over the step's cached noise-free stacks or
      a noisy call's own draw (:meth:`_stacks`);
    * ``delegate`` — :meth:`ProgrammedLayer.mvm_batch` over
      :func:`_input_codes`, the per-engine walk, for every call when
      the plan runs with ``fused=False``.

    Only the inline path reads count stacks, so the first noise-free
    inline run builds the cached ones (:meth:`_build_stacks`) and a
    step that only delegates, or only draws noise, never does.

    Dense steps drive one vector per sample, conv steps one per output
    pixel; the two share the quantiser (:meth:`_split`) and the SA
    digitiser (:meth:`_sense`) and differ only in layout.  ``layer``
    is ``None`` for a dense layer run on its own (:func:`run_layer`).
    """

    def __init__(self, layer, programmed: ProgrammedLayer, pin: int) -> None:
        spec = programmed.spec
        self.layer = layer
        # Weak: the programmed layer memoises the plan, so a strong
        # back-reference would make a reference cycle that keeps every
        # engine alive until a gc pass.  The token, the calibration,
        # the charge and the walk are read through it; the grid and the
        # spec are held here.
        self._programmed = weakref.ref(programmed)
        self.tiles = programmed.tiles
        self.spec = spec
        self.token = programmed.token
        self.pin = pin
        self.is_conv = isinstance(layer, Conv2D)
        self.lo_div = float(1 << (spec.pin // 2))
        self.inv_lo_div = 1.0 / self.lo_div
        self.t = programmed.total_cols
        self.rb = programmed.row_blocks
        self.rows_used = list(programmed.rows_used)
        self.rmax = max(self.rows_used)
        self.total_rows = programmed.total_rows
        self.offs = [0]
        for rows in self.rows_used:
            self.offs.append(self.offs[-1] + rows)
        # Integer (on-lattice) stacks take the narrowest exact dtype; a
        # stack with any continuous column, or one a call can draw read
        # noise into, takes float64.
        self.draws_noise = programmed.samples_read_noise(True)
        self.cdtype = (
            _count_dtype(spec, self.rmax)
            if programmed.on_lattice and not self.draws_noise
            else np.float64
        )
        # The digitised planes sum in the count dtype when the sum of
        # all 4 * row_blocks of them stays exact there at every shift
        # (a digitised part peaks at (2**po - 1) * 2**HH, at shift 0);
        # otherwise they sum in float64.
        sensed = ((1 << spec.po) - 1) << spec.part_exponents["HH"]
        self.acc_dtype = (
            self.cdtype if 4 * self.rb * sensed < (1 << 24) else np.float64
        )
        # Eq. 8's part exponent split into a drive-phase term and a
        # weight-half term: part [p, h] weighs 2**(e_in[p] + e_w[h]).
        exps = spec.part_exponents
        self.e_in = np.array([exps["LH"], 0])
        self.e_w = np.array([exps["HL"], 0])
        # Calibration constants, baked by _lower on the first run.
        self.in_fmt = None
        # Noise-free count stacks, built by _build_stacks on the first
        # noise-free inline run: conv steps hold one (2t, rows) matrix
        # per row block in w_rows; dense steps batch their full-height
        # blocks into w_full and keep short tail blocks as right-sized
        # w_tails matrices.  The executor tiles rows in order, so only
        # the last block can be short and the full blocks form a prefix.
        self.stacked = False
        self.w_rows = self.w_full = self.w_tails = None
        if self.is_conv:
            return
        self.n_full = next(
            (i for i, r in enumerate(self.rows_used) if r != self.rmax),
            self.rb,
        )
        # Packed micro-batch stack, built lazily on first use.
        in_max = (1 << (spec.pin - spec.pin // 2)) - 1
        w_max = (1 << (spec.pw - spec.pw // 2)) - 1
        self.sub_bound = PACKED_SUB_ROWS * in_max * w_max
        self.pack_scale = float(1 << PACKED_FIELD_BITS)
        self.sub_counts = [
            -(-r // PACKED_SUB_ROWS) for r in self.rows_used
        ]
        self.S = sum(self.sub_counts)
        # Sub-blocks of row block i span [sub_offs[i], sub_offs[i+1])
        # along the packed axis.
        self.sub_offs = np.cumsum([0] + self.sub_counts)
        # Gather map from packed (sub_block, row) position to a column
        # of the quantised drive matrix; tail padding points at the
        # all-zero sentinel column appended after the bias row.
        gather = np.full(self.S * PACKED_SUB_ROWS, self.total_rows)
        pos = 0
        for i in range(self.rb):
            rows = self.rows_used[i]
            gather[pos : pos + rows] = np.arange(
                self.offs[i], self.offs[i] + rows
            )
            pos += self.sub_counts[i] * PACKED_SUB_ROWS
        self.pack_gather = gather
        self.pack_ones = np.ones(max(self.sub_counts), dtype=np.float32)
        # Shared lazy caches (these and the stacks above): read-only
        # once built, and a concurrent duplicate build is idempotent
        # (deterministic values, published whole), so they stay on the
        # step; mutable scratch lives in the executing thread's stores
        # (:meth:`CompiledPlan.execute`).
        self._w_pack: np.ndarray | None = None

    # -- compile-time pieces -------------------------------------------

    def valid(self) -> bool:
        """Whether the programmed state still matches this lowering:
        the layer still carries the state token this step was built
        under (:meth:`ProgrammedLayer.invalidate` renews it), and the
        layer's input format, output shift and weight format equal, by
        value, the ones baked in.

        A step not lowered yet adopts (or freezes) whatever calibration
        its layer holds when it first runs.
        """
        programmed = self._programmed()
        if programmed is None or programmed.token is not self.token:
            return False
        return self.in_fmt is None or (
            programmed.in_fmt,
            programmed.output_shift,
            programmed.w_fmt,
        ) == (self.in_fmt, self.shift, self.w_fmt)

    def _lower(self, act: np.ndarray) -> None:
        """Bake the layer's calibration into this step's constants,
        freezing it from ``act`` (this first chunk) if it has none.

        ``in_fmt`` is assigned last: it marks the step lowered.
        """
        programmed = self._programmed()
        if programmed.in_fmt is None:
            freeze_calibration(self.layer, programmed, act, self.pin)
        in_fmt = programmed.in_fmt
        spec = self.spec
        self.shift = int(programmed.output_shift)
        self.w_fmt = programmed.w_fmt
        # A float64 scalar, so float32 sums scale in float64.
        self.scale = np.float64(
            (2.0 ** programmed.output_shift)
            * in_fmt.resolution
            * programmed.w_fmt.resolution
        )
        # Resolution is a power of two, so multiplying by its inverse
        # equals quantize_int's division.
        self.inv_in_res = 1.0 / in_fmt.resolution
        self.code_max = float(in_fmt.int_max)
        # The fold: drive phase p carries 2**(e_in[p] - shift) and
        # weight half h carries 2**e_w[h] (see __init__), so the count
        # plane of part [p, h] leaves the matmul scaled by fold[p, h].
        # The SA window (part_window) stays the definition; what is
        # left of its pre-scale is the residual pre / fold, all ones
        # while pin/2 + pw/2 <= shift < part_full_bits.
        pre, post = part_window(spec, self.shift)
        self.drive_scale = (2.0 ** (self.e_in - self.shift)).astype(
            self.cdtype
        )
        fold = np.outer(self.drive_scale, 2.0 ** self.e_w)
        if self.is_conv:
            # Per phase of the split pixel planes (c, phase, ...).
            self.hl_scale = self.drive_scale.reshape(2, 1, 1, 1)
        else:
            # The packed path restores its low field by 2**12 (see
            # _packed_counts) in the same multiply that folds.
            self.pack_fold = (
                (fold * [1.0, self.pack_scale])
                .reshape(1, 2, 1, 2, 1)
                .astype(self.cdtype)
            )
        # Count planes are [phase, half] for dense steps and
        # [half, phase] for conv steps (see _conv_inline).
        residual = pre / fold
        if self.is_conv:
            residual, post = residual.T, post.T
        self.res_c, self.post_c = (
            None
            if np.all(window == 1.0)
            else window.reshape(1, 2, 1, 2, 1).astype(self.cdtype)
            for window in (residual, post)
        )
        self.packed_ok = (
            not self.is_conv
            and self.t >= PACKED_MIN_COLS
            and self.cdtype == np.float32
            and self.sub_bound < (1 << (PACKED_FIELD_BITS - 1))
            and self.sub_bound * (self.pack_scale + 1.0) < float(1 << 24)
        )
        self.in_fmt = in_fmt

    def _stacks(self, noisy: bool, store: dict):
        """The count stacks this call multiplies, ``w_rows`` for a conv
        step and ``(w_full, w_tails)`` for a dense one.

        A noise-free call reads the step's own stacks, built on the
        first such call and kept.  A call that samples read noise
        (``noisy``) reads its own draw: every engine's cells read with
        noise, into stacks kept in the calling thread's scratch
        ``store`` and rewritten by each noisy call, so no two calls or
        threads ever share one.
        """
        if noisy:
            store["noisy"] = self._build_stacks(True, store.get("noisy"))
            return store["noisy"]
        if not self.stacked:
            stacks = self._build_stacks(False)
            if self.is_conv:
                self.w_rows = stacks
            else:
                self.w_full, self.w_tails = stacks
            self.stacked = True
        return self.w_rows if self.is_conv else (self.w_full, self.w_tails)

    def _build_stacks(self, noisy: bool, stacks=None):
        """Fill count stacks in the scaled layout the matmuls read (see
        ``__init__``), into ``stacks`` when given, else new ones.

        Row block ``i`` fills a ``(rows, 2t)`` view: columns ``[:t]``
        hold the high weight halves times the fold's ``2**(pw/2)``,
        columns ``[t:]`` the low halves, so one matmul per drive phase
        yields both part planes (:meth:`_fill`).  No unscaled copy is
        kept.
        """
        t = self.t
        if stacks is None and self.is_conv:
            stacks = [
                np.empty((2 * t, rows), dtype=self.cdtype)
                for rows in self.rows_used
            ]
        elif stacks is None:
            stacks = (
                np.empty((self.n_full, self.rmax, 2 * t), dtype=self.cdtype),
                [
                    np.empty((rows, 2 * t), dtype=self.cdtype)
                    for rows in self.rows_used[self.n_full :]
                ],
            )
        if self.is_conv:
            blocks = [w.T for w in stacks]
        else:
            blocks = [*stacks[0], *stacks[1]]
        for row, block in zip(self.tiles, blocks):
            self._fill(row, block, noisy)
        return stacks

    def _fill(self, row, block: np.ndarray, noisy: bool) -> None:
        """One row block's scaled weight halves (see :meth:`_build_stacks`).

        On a noise-free call, when any engine's cells hold exactly its
        ``programmed_weights``
        (:attr:`CrossbarMVMEngine.holds_programmed`), the tile row's
        weights are assembled once, vectorised over the block, and
        split in place: ``hi_s = trunc(w / 2**(pw/2)) * 2**(pw/2)`` and
        ``lo = w - hi_s``, exact integers equal to the engine's ``sign
        * split_unsigned(|w|)`` halves after the fold.  Every other
        engine, and every engine on a ``noisy`` call, then writes its
        own columns from :meth:`CrossbarMVMEngine.cell_weights`, engine
        by engine in tile order: integers on the lattice without read
        noise, each cell pair's ``(G+ - G-) / g_step`` otherwise, with
        a ``noisy`` call drawing each array's read noise in the order
        the walk draws it (:meth:`DifferentialPair.count_weights`).
        """
        t = self.t
        half = float(2.0 ** self.e_w[0])
        hi, lo = block[:, :t], block[:, t:]
        clean = [not noisy and engine.holds_programmed for engine in row]
        if any(clean):
            np.concatenate(
                [engine.programmed_weights for engine in row], axis=1, out=lo
            )
            np.multiply(lo, 1.0 / half, out=hi)
            np.trunc(hi, out=hi)
            hi *= half
            lo -= hi
        c0 = 0
        for engine, done in zip(row, clean):
            c1 = c0 + engine.cols_used
            if not done:
                w_hi, w_lo = engine.cell_weights(noisy)
                np.multiply(w_hi, half, out=hi[:, c0:c1])
                lo[:, c0:c1] = w_lo
            c0 = c1

    def _blocks(self) -> list[np.ndarray]:
        """The dense stack's ``(rows, 2t)`` row blocks, in order."""
        return [*self.w_full, *self.w_tails]

    def _packed_stack(self) -> np.ndarray:
        """(sub_blocks, PACKED_SUB_ROWS, cols) packed weight fields.

        Each 256-row block splits into 16-row sub-blocks whose hi/lo
        signed weight halves pack as ``hi * 2**12 + lo`` in one float32
        value, built from the scaled blocks as ``hi_s * 2**(12 - pw/2)
        + lo`` (exact: a power-of-two scale of an integer).  A
        sub-block dot product against 3-bit input halves is bounded by
        ``16 * 7 * 15 = 1680 < 2**11``, so the packed product ``A *
        2**12 + B`` stays below ``2**24`` (exact float32 matmul) and
        ``rint(v / 2**12)`` recovers the hi field exactly (``|B| /
        2**12 < 0.5``).
        """
        if self._w_pack is None:
            sub = PACKED_SUB_ROWS
            t = self.t
            up = 2.0 ** (PACKED_FIELD_BITS - self.e_w[0])
            w_pack = np.zeros((self.S, sub, t), dtype=np.float32)
            flat = w_pack.reshape(self.S * sub, t)
            for i, block in enumerate(self._blocks()):
                r0 = self.sub_offs[i] * sub
                fields = flat[r0 : r0 + self.rows_used[i]]
                np.multiply(block[:, :t], up, out=fields)
                fields += block[:, t:]
            self._w_pack = w_pack
        return self._w_pack

    @staticmethod
    def _stored(store: dict, key):
        """The buffer set under ``key``, evicting the oldest set when
        the store is full; ``None`` when it must be built."""
        buffers = store.get(key)
        if buffers is None and len(store) >= _MAX_BUFFER_SETS:
            store.pop(next(iter(store)))
        return buffers

    def _buffer_set(self, n: int, packed: bool, store: dict) -> dict:
        """Preallocated dense working set for ``n`` input vectors.

        ``store`` is this step's slot in the executing thread's scratch
        stores — never shared between concurrent executions, so
        everything below may be written in place.
        """
        buffers = self._stored(store, n)
        if buffers is None:
            # One extra column past the bias row: the all-zero sentinel
            # the packed gather map points tail padding at.  It stays
            # zero forever (quantising zero yields zero halves).  The
            # code halves are small integers, exact in the count dtype,
            # so the drive fills without a cast.
            width = self.total_rows + 1
            buffers = {
                "vecs": np.empty((n, width)),
                "q": np.empty((n, width)),
                "hi": np.empty((n, width), dtype=self.cdtype),
                "lo": np.empty((n, width), dtype=self.cdtype),
                "counts": np.empty(
                    (self.rb, 2 * n, 2 * self.t), dtype=self.cdtype
                ),
                "acc": np.empty((n, 2 * self.t), dtype=self.acc_dtype),
                "out": np.empty((n, self.t)),
            }
            buffers["vecs"][:, -2] = 1.0
            buffers["vecs"][:, -1] = 0.0
            store[n] = buffers
        if packed and "drive_pack" not in buffers:
            buffers["drive_pack"] = np.empty(
                (self.S, 2 * n, PACKED_SUB_ROWS), dtype=np.float32
            )
            buffers["v_pack"] = np.empty(
                (self.S, 2 * n, self.t), dtype=np.float32
            )
            buffers["a_pack"] = np.empty_like(buffers["v_pack"])
            buffers["red_tmp"] = np.empty(2 * n * self.t, dtype=np.float32)
        if not packed and "drive_full" not in buffers:
            buffers["drive_full"] = np.empty(
                (self.n_full, 2 * n, self.rmax), dtype=self.cdtype
            )
            buffers["drive_tails"] = [
                np.empty((2 * n, rows), dtype=self.cdtype)
                for rows in self.rows_used[self.n_full :]
            ]
        return buffers

    def _conv_buffers(self, shape: tuple, oh: int, ow: int, store: dict):
        """Preallocated conv working set for one input geometry.

        The padded pixel planes keep their zero border forever (only
        the interior is written), and the drive's bias row holds the
        constant code halves of input 1, scaled by their drive-phase
        factors like every other row.
        """
        buffers = self._stored(store, shape)
        if buffers is None:
            b, h, w, c = shape
            p = self.layer.pad
            planes = (c, b, h + 2 * p, w + 2 * p)
            n = b * oh * ow
            drive = np.empty(
                (self.total_rows, 2, b, oh, ow), dtype=self.cdtype
            )
            one = float(self.in_fmt.quantize_int(1.0))
            hi = np.floor(one * self.inv_lo_div)
            drive[-1, 0] = hi * self.drive_scale[0]
            drive[-1, 1] = (one - hi * self.lo_div) * self.drive_scale[1]
            buffers = {
                "pix": np.zeros(planes),
                "q": np.empty(planes),
                "hl": np.empty((c, 2) + planes[1:], dtype=self.cdtype),
                "drive": drive,
                "counts": np.empty(
                    (self.rb, 2 * self.t, 2 * n), dtype=self.cdtype
                ),
                "acc": np.empty((self.t, n), dtype=self.acc_dtype),
                "out": np.empty((n, self.t)),
            }
            store[shape] = buffers
        return buffers

    # -- execution ------------------------------------------------------

    def run(
        self, act: np.ndarray, with_noise: bool, store: dict, fused: bool
    ) -> np.ndarray:
        if telemetry.enabled():
            with telemetry.span(
                "executor.layer", layer="Conv2D" if self.is_conv else "Dense"
            ):
                return self._run(act, with_noise, store, fused, telemetry.span)
        return self._run(act, with_noise, store, fused, _untraced)

    def _run(
        self,
        act: np.ndarray,
        with_noise: bool,
        store: dict,
        fused: bool,
        span,
    ) -> np.ndarray:
        """One step; ``span`` opens the inline phases' spans
        (``plan.split``/``counts``/``digitise``/``sum``), a no-op
        unless :meth:`run` found telemetry enabled."""
        if self.is_conv:
            oh, ow = _conv_geometry(self.layer, act)
        elif act.ndim != 2:
            act = act.reshape(act.shape[0], -1)
        if self.in_fmt is None:
            self._lower(act)
        if not fused:
            result = self._delegate(act, with_noise)
            if self.is_conv:
                return result.reshape(act.shape[0], oh, ow, self.t)
            return result
        noisy = with_noise and self.draws_noise
        if self.is_conv:
            return self._conv_inline(act, oh, ow, store, span, noisy)
        return self._inline(act, store, span, noisy)

    def _delegate(self, act: np.ndarray, with_noise: bool) -> np.ndarray:
        """The per-engine walk (``fused=False``), the semantic
        reference: :meth:`ProgrammedLayer.mvm_batch` over
        :func:`_input_codes`."""
        codes = _input_codes(self.layer, act, self.in_fmt)
        outputs = self._programmed().mvm_batch(
            codes, with_noise=with_noise, output_shift=self.shift
        )
        return outputs * self.scale

    def _split(self, values, q, hi, lo) -> None:
        """Fused quantise -> hi/lo drive halves, no int64 round trip.

        Bit-identical to ``in_fmt.quantize_int`` + ``split_unsigned``:
        the resolution is a power of two (exact scaling), rint/floor on
        exact float integers match the integer shifts, and clipping
        after rounding equals clipping before (negatives round toward
        zero either way).
        """
        np.multiply(values, self.inv_in_res, out=q)
        np.rint(q, out=q)
        np.clip(q, 0.0, self.code_max, out=q)
        np.multiply(q, self.inv_lo_div, out=hi)
        np.floor(hi, out=hi)
        np.multiply(hi, -self.lo_div, out=lo)
        lo += q

    def _inline(
        self, vectors: np.ndarray, store: dict, span, noisy: bool
    ) -> np.ndarray:
        """Dense counts over the call's stacks (:meth:`_stacks`, read
        inside ``plan.counts``: a noisy call's draw is part of forming
        its counts); micro-batches of wide layers read the packed stack
        instead, which only noise-free float32 steps build."""
        n = vectors.shape[0]
        packed = self.packed_ok and n <= PACKED_MAX_VECS
        buffers = self._buffer_set(n, packed, store=store)
        hi, lo = buffers["hi"], buffers["lo"]
        with span("plan.split"):
            vecs = buffers["vecs"]
            vecs[:, : self.total_rows - 1] = vectors
            self._split(vecs, buffers["q"], hi, lo)
        counts = buffers["counts"]
        with span("plan.counts", vectors=n):
            stacks = self._stacks(noisy, store)
            if packed:
                self._packed_counts(hi, lo, counts, buffers, n)
            else:
                self._trimmed_counts(hi, lo, counts, buffers, n, *stacks)
        self._programmed().charge(n, self.shift)
        with span("plan.digitise"):
            # [block, phase, vector, half, col] planes.
            self._sense(counts.reshape(self.rb, 2, n, 2, self.t))
        with span("plan.sum"):
            # Over (block, phase), then the halves, in acc_dtype.
            acc = buffers["acc"]
            t = self.t
            np.add.reduce(
                counts.reshape(self.rb * 2, n, 2 * t), axis=0, out=acc
            )
            np.add(acc[:, :t], acc[:, t:], out=acc[:, :t])
            out = buffers["out"]
            np.multiply(acc[:, :t], self.scale, out=out)
        return out

    def _conv_inline(
        self, act: np.ndarray, oh: int, ow: int, store: dict, span, noisy
    ) -> np.ndarray:
        """Conv counts without a float64 patch matrix.

        Each padded input pixel is quantised, split and scaled by its
        drive-phase factor once; the drive ``(rows, phase, vector)``
        then fills by one slice copy per kernel offset, and ``W^T @
        drive`` per row block of the call's stacks (:meth:`_stacks`,
        read inside ``plan.counts`` like the dense step's) yields
        count planes ``[block, half, col, phase, vector]`` whose long
        vector axis is innermost for the digitisation and the
        reduction.
        """
        b, h, w, _ = act.shape
        n = b * oh * ow
        buffers = self._conv_buffers(act.shape, oh, ow, store)
        pix, hl, drive = buffers["pix"], buffers["hl"], buffers["drive"]
        with span("plan.split"):
            p = self.layer.pad
            pix[:, :, p : p + h, p : p + w] = act.transpose(3, 0, 1, 2)
            self._split(pix, buffers["q"], hl[:, 0], hl[:, 1])
            hl *= self.hl_scale
        counts = buffers["counts"]
        with span("plan.counts", vectors=n):
            w_rows = self._stacks(noisy, store)
            _gather_patches(hl, self.layer.kernel, drive)
            flat = drive.reshape(self.total_rows, 2 * n)
            for i, w_block in enumerate(w_rows):
                np.matmul(
                    w_block,
                    flat[self.offs[i] : self.offs[i + 1]],
                    out=counts[i],
                )
        self._programmed().charge(n, self.shift)
        parts = counts.reshape(self.rb, 2, self.t, 2, n)
        with span("plan.digitise"):
            self._sense(parts)
        with span("plan.sum"):
            acc = buffers["acc"]
            np.add.reduce(parts, axis=(0, 1, 3), out=acc)
            out = buffers["out"]
            np.multiply(acc.T, self.scale, out=out)
        return out.reshape(b, oh, ow, self.t)

    def _trimmed_counts(
        self, hi, lo, counts, buffers, n: int, w_full, w_tails
    ) -> None:
        """Count planes via the trimmed full/tail weight stacks, each
        drive phase scaled by its fold factor as it is copied in."""
        a_hi, a_lo = self.drive_scale
        drive = buffers["drive_full"]
        for j in range(self.n_full):
            off = self.offs[j]
            np.multiply(hi[:, off : off + self.rmax], a_hi, out=drive[j, :n])
            np.multiply(lo[:, off : off + self.rmax], a_lo, out=drive[j, n:])
        if self.n_full:
            np.matmul(drive, w_full, out=counts[: self.n_full])
        tails = zip(
            range(self.n_full, self.rb), buffers["drive_tails"], w_tails
        )
        for i, tail, w_tail in tails:
            off, rows = self.offs[i], self.rows_used[i]
            np.multiply(hi[:, off : off + rows], a_hi, out=tail[:n])
            np.multiply(lo[:, off : off + rows], a_lo, out=tail[n:])
            np.matmul(tail, w_tail, out=counts[i])

    def _packed_counts(self, hi, lo, counts, buffers, n: int) -> None:
        """Count planes via the packed micro-batch stack.

        The row-block order of ``counts`` matches the layer layout;
        only the field extraction differs from the trimmed path, and
        every step is exact (see :meth:`_packed_stack`).  The packed
        stack carries no fold factor, so the planes take theirs in one
        final multiply.
        """
        w_pack = self._packed_stack()
        sub = PACKED_SUB_ROWS
        drive = buffers["drive_pack"]
        gather = self.pack_gather
        drive[:, :n] = (
            hi[:, gather].reshape(n, self.S, sub).transpose(1, 0, 2)
        )
        drive[:, n:] = (
            lo[:, gather].reshape(n, self.S, sub).transpose(1, 0, 2)
        )
        v = buffers["v_pack"]
        a = buffers["a_pack"]
        tmp = buffers["red_tmp"]
        t = self.t
        # Per row block, while the segment is cache-hot: packed matmul,
        # three-pass field extraction (a <- v / P, v <- rint(a) = the
        # hi field A, a <- a - v = B / P, exact: B spans 11 bits
        # against P = 2**12, and partial sums of at most 16 sub-block
        # terms stay inside float32's exact dyadic range), then a
        # ones-vector GEMV sums the sub-blocks.  The P restore and the
        # fold share one multiply of the reduced array, which is 16x
        # smaller.
        for i in range(self.rb):
            s0, s1 = self.sub_offs[i], self.sub_offs[i + 1]
            sc = s1 - s0
            vs = v[s0:s1]
            a_s = a[s0:s1]
            np.matmul(drive[s0:s1], w_pack[s0:s1], out=vs)
            np.multiply(vs, 1.0 / self.pack_scale, out=a_s)
            np.rint(a_s, out=vs)
            a_s -= vs
            np.dot(self.pack_ones[:sc], vs.reshape(sc, -1), out=tmp)
            counts[i, :, :t] = tmp.reshape(2 * n, t)
            np.dot(self.pack_ones[:sc], a_s.reshape(sc, -1), out=tmp)
            counts[i, :, t:] = tmp.reshape(2 * n, t)
        planes = counts.reshape(self.rb, 2, n, 2, t)
        planes *= self.pack_fold

    def _sense(self, parts: np.ndarray) -> None:
        """In-place SA digitisation of the four partial-product planes.

        ``parts`` views the folded count planes (each already scaled by
        its part's fold factor, see :meth:`_lower`) with the drive
        phase and the weight half as two length-2 axes, in the order
        ``res_c`` and ``post_c`` were baked for, and goes through the
        one SA transfer function
        (:func:`~repro.crossbar.sense.digitise`) at the residual
        window: ``trunc(c * F * pre / F) = trunc(c * pre)`` exactly,
        since every factor is a power of two.  The digitised values
        stay exact by the compile-time bounds, so summing the planes in
        ``acc_dtype`` reproduces the walk's int64 totals bit for bit.
        """
        digitise(
            parts, self.res_c, self.post_c, self.spec.po, out=parts
        )


class CompiledPlan:
    """A programmed network lowered into one flat execution schedule.

    Built by :meth:`compile` from a programmed-layer chain, calibrated
    or not (the first execution freezes what is missing, step by step);
    :meth:`execute` runs each chunk of ``run_functional``.  The plan
    holds *references* to the programmed
    state (engines, formats) — :meth:`matches` detects
    reprogramming / recalibration / layer invalidation, and the
    executor recompiles when it no longer holds.  The programmed layers
    themselves are held weakly: the first of them memoises the plan,
    and a closed deployment must free its engines by reference
    counting alone.
    """

    def __init__(self, network, layers, pin, steps) -> None:
        self.network = network
        self._layers = [weakref.ref(layer) for layer in layers]
        self.pin = pin
        self.steps = steps
        # Scratch stores (one dict per step) of each executing thread:
        # concurrent executions write only their own buffers and noisy
        # stacks, while the noise-free weight stacks stay shared and
        # read-only.
        self._scratch = threading.local()
        # exact(with_noise), memoised per noise regime.
        self._exact: dict[bool, bool] = {}

    def free_scratch(self) -> None:
        """Drop the calling thread's scratch buffers.

        Deploy-time calibration runs the calibration batch on the
        deploying thread, at a width serving rarely uses again; the
        deployment frees those buffer sets here instead of holding them
        for its whole life.  The next execution on this thread
        allocates afresh.
        """
        self._scratch.stores = None

    @classmethod
    def compile(
        cls, network: Sequential, layers: list, pin: int
    ) -> "CompiledPlan":
        """Lower ``network`` over its programmed layers.

        The chain may be uncalibrated: each weight step freezes its
        layer's calibration on its first run (see :class:`_WeightStep`).
        Raises :class:`~repro.errors.ExecutionError` when the programmed
        state does not line up with the network's weight layers.
        """
        weight_layers = [
            l for l in network.layers if isinstance(l, (Dense, Conv2D))
        ]
        if len(weight_layers) != len(layers):
            raise ExecutionError(
                f"network has {len(weight_layers)} weight layers but "
                f"{len(layers)} programmed layers were supplied"
            )
        steps = []
        idx = 0
        for layer in network.layers:
            if isinstance(layer, (Dense, Conv2D)):
                steps.append(_WeightStep(layer, layers[idx], pin))
                idx += 1
            else:
                steps.append(_ForwardStep(layer))
        plan = cls(network, layers, pin, steps)
        telemetry.count("perf.plan.compiles")
        return plan

    def matches(self, network: Sequential, layers: list, pin: int) -> bool:
        """Whether this plan still describes ``(network, layers)``.

        Identity of the network, the programmed layers and their
        state tokens, and the frozen calibrations by value —
        any reprogramming (``invalidate``) or recalibration
        (``reset_calibration``) breaks one of these and triggers a
        recompile.
        """
        return (
            self.network is network
            and self.pin == pin
            and len(self._layers) == len(layers)
            and all(ref() is b for ref, b in zip(self._layers, layers))
            and all(step.valid() for step in self.steps)
        )

    def exact(self, with_noise: bool) -> bool:
        """Whether a forward in this noise regime is exact.

        Exact means every weight layer's arrays are on the level
        lattice (:attr:`ProgrammedLayer.on_lattice`) and the call
        samples no read noise: every count is then an integer inside
        the float dtype's exact range, on every path, so no result bit
        depends on how BLAS splits its sums.  Only exact forwards
        narrow the BLAS thread budget (:mod:`repro.perf.blas`).
        Reprogramming or drift replaces the plan, so the flag is
        computed once per plan and regime.
        """
        with_noise = bool(with_noise)
        flag = self._exact.get(with_noise)
        if flag is None:
            flag = all(
                layer.on_lattice and not layer.samples_read_noise(with_noise)
                for layer in (
                    step._programmed()
                    for step in self.steps
                    if isinstance(step, _WeightStep)
                )
            )
            self._exact[with_noise] = flag
        return flag

    def execute(
        self, act: np.ndarray, with_noise: bool = False, fused: bool = True
    ):
        """One chunk's pass through the flat step list.

        ``fused=False`` delegates every weight step to the per-engine
        walk, the semantic reference.  Re-entrant across threads: each
        thread writes only its own scratch stores (a noisy call's
        stacks included), kept in a ``threading.local`` and reused by
        its later executions, while the noise-free weight stacks stay
        shared and read-only.  The final
        activation is copied out when the last step is a weight layer:
        its inline path returns a scratch buffer that this thread's
        next execution would otherwise overwrite in place.  The first
        execution over an uncalibrated chain freezes its calibration,
        a state mutation: it must not race another execution (thread
        serving runs it under the state's write lock).  The step loop
        holds a place in the process's BLAS thread budget
        (:func:`repro.perf.blas.forward`), so concurrent exact
        forwards share the BLAS threads instead of oversubscribing
        them.
        """
        stores = getattr(self._scratch, "stores", None)
        if stores is None:
            stores = self._scratch.stores = [{} for _ in self.steps]
        with blas.forward(self.exact(with_noise)):
            for step, store in zip(self.steps, stores):
                act = step.run(act, with_noise, store, fused)
        if isinstance(self.steps[-1], _WeightStep):
            act = act.copy()
        return act


def run_layer(
    programmed: ProgrammedLayer, x: np.ndarray, with_noise: bool = False
) -> np.ndarray:
    """One dense layer's forward on ``(batch, inputs)`` activations,
    its bias row driven at 1, at the caller's ``programmed.in_fmt`` and
    ``programmed.output_shift`` (the in-situ trainer's and the SNN
    backend's entry).  Runs a one-step :class:`CompiledPlan` memoised
    in ``programmed.compiled_plan``: rebuilt when
    :meth:`ProgrammedLayer.invalidate` renews the layer's token,
    re-lowered when the calibration changes by value.  Reads
    ``PRIME_FUSED`` once per call; ``0`` walks the engines.
    """
    plan = programmed.compiled_plan
    if plan is None or plan.steps[0].token is not programmed.token:
        pin = programmed.spec.pin
        step = _WeightStep(None, programmed, pin)
        plan = CompiledPlan(None, [programmed], pin, [step])
        programmed.compiled_plan = plan
    elif not plan.steps[0].valid():
        plan.steps[0]._lower(x)
    return plan.execute(x, with_noise, fused_enabled())
