"""Plan-compiled megakernel: how ``run_functional`` runs a network.

:meth:`PrimeExecutor.run_functional` executes every chunk through a
:class:`CompiledPlan`, which lowers a programmed
:class:`ProgrammedLayer` chain into a flat step list once, at deploy
time, instead of interpreting the network layer by layer:

* the chain may be uncalibrated: each weight step freezes its layer's
  input format and SA output shift the first time it runs, in layer
  order, from the first chunk's ``CALIBRATION_SAMPLES`` prefix
  (:func:`freeze_calibration`), and only then bakes them into
  constants — so a fresh network runs its very first chunk compiled;
* weight/conductance stacks are trimmed and cached per layer (full
  256-row blocks evaluate as one batched matmul; short tail blocks get
  their own right-sized matmul instead of padding to the block size);
* the frozen calibration formats are baked into scalar constants
  (``1/resolution``, saturation bounds, and each partial product's SA
  window from :func:`~repro.crossbar.sense.part_window`), so no format
  objects are touched on the hot path;
* quantisation, the hi/lo drive split, digitisation, and the output
  scale all run in place on preallocated buffers that persist across
  chunks and batches of the same width;
* conv layers quantise and split each padded input pixel once, then
  build the integer-code drive with one slice copy per kernel offset
  (:func:`_gather_patches`) — no float64 patch matrix — and compute
  ``W^T @ drive`` so the long vector axis stays innermost through the
  count planes and the digitisation;
* micro-batches (``<= PACKED_MAX_VECS`` vectors) evaluate through a
  *packed* weight stack that fuses the hi/lo weight halves into one
  float32 field pair — halving the streamed weight bytes in the
  latency regime where the matmul is bandwidth-bound.

Exactness: with noise off on ideal arrays every intermediate is an
integer inside the float dtype's contiguous-integer range (the same
invariant :class:`FusedLayerKernel` relies on), so the compiled path
is bit-identical to the per-engine walk.  The packed stack keeps two
12-bit-separated integer fields whose dot products stay below
``2**24`` per 16-row sub-block, so float32 matmul and ``rint`` field
extraction are exact too.  On arrays programmed with variation the
kernel's stack holds float64 differential cell weights instead; the
same trimmed inline path runs them (never the packed one).  Every path
digitises through the one SA transfer function,
:func:`~repro.crossbar.sense.digitise`.  Layers that cannot take the
inline path (read noise on, resilience-remapped tiles, on-lattice
faulted arrays) delegate to ``FusedLayerKernel.mvm_batch``, which
applies its own fused-noisy or per-engine path — semantics, seeded
noise reproducibility, and telemetry counters are preserved in every
case.  With ``fused=False`` (``PRIME_FUSED=0``) every weight step
delegates and the kernel walks the engines: the semantic reference
the other paths are tested against.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro import telemetry
from repro.crossbar.sense import digitise, part_window
from repro.errors import ExecutionError
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential
from repro.perf import blas
from repro.precision.dynamic_fixed_point import DynamicFixedPoint

__all__ = [
    "CALIBRATION_SAMPLES",
    "freeze_calibration",
    "PlanWorkspace",
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
#: Buffer sets cached per weight step (one per distinct batch width).
_MAX_BUFFER_SETS = 8


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


def _input_codes(layer, act: np.ndarray, in_fmt: DynamicFixedPoint):
    """``(vectors, rows)`` int64 input codes of one weight layer.

    A dense layer takes one vector per sample, a conv layer one per
    output pixel, each ending in the bias input 1.  Conv codes are
    quantised once per zero-padded input pixel, channel-major, and
    gathered by :func:`_gather_patches`; negative activations quantise
    to zero.
    """
    one = in_fmt.quantize_int(1.0)
    if isinstance(layer, Conv2D):
        oh, ow = _conv_geometry(layer, act)
        p, k = layer.pad, layer.kernel
        padded = np.pad(act, ((0, 0), (p, p), (p, p), (0, 0)))
        pix = in_fmt.quantize_int(
            np.clip(padded.transpose(3, 0, 1, 2), 0.0, None)
        )
        codes = np.empty(
            (k * k * pix.shape[0] + 1, act.shape[0], oh, ow), dtype=np.int64
        )
        _gather_patches(pix, k, codes)
        codes[-1] = one
        return codes.reshape(len(codes), -1).T
    vectors = act.reshape(act.shape[0], -1)
    codes = np.empty((len(vectors), vectors.shape[1] + 1), dtype=np.int64)
    codes[:, :-1] = in_fmt.quantize_int(np.clip(vectors, 0.0, None))
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
    is the kernel's calibration over the prefix's codes.  Later chunks
    and batches reuse both; out-of-range activations saturate, as a
    fixed hardware reference would.  Every weight step freezes through
    here on its first run, whichever path it then takes.
    """
    prefix = act[:CALIBRATION_SAMPLES]
    peak = max(float(np.max(np.abs(prefix), initial=0.0)), 1.0)
    in_fmt = DynamicFixedPoint.for_data(
        np.array([peak]), bits=pin, signed=False
    )
    codes = _input_codes(layer, prefix, in_fmt)
    programmed.output_shift = programmed.kernel.calibrate_output_shift(
        codes, calibration_samples=len(codes)
    )
    programmed.in_fmt = in_fmt


class PlanWorkspace:
    """One lease's worth of scratch stores, one dict per plan step.

    Every mutable hot-path buffer a :class:`CompiledPlan` touches lives
    here (keyed per step by batch width), so two executions holding
    *different* workspaces never write the same array — the shared plan
    keeps only read-only weight/conductance stacks and compile-time
    constants.  Leased/released by :meth:`CompiledPlan.execute`; the
    pool hands a thread its previous workspace back (LIFO), so steady
    per-thread traffic reuses warm buffers exactly like the old
    per-plan cache did.
    """

    __slots__ = ("stores",)

    def __init__(self, n_steps: int) -> None:
        self.stores: list[dict] = [{} for _ in range(n_steps)]


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
        return self.layer.forward(act)


class _WeightStep:
    """One mapped weight layer, lowered to preallocated array math.

    A step may be built over an uncalibrated layer.  Its first run
    *lowers* it: :func:`freeze_calibration` freezes the layer's input
    format and SA output shift from that chunk when the layer has none
    yet, and the step bakes them into scalar constants.  Two execution
    paths then share the quantisation front end:

    * ``inline`` — the noise-free count-domain math, fully in place
      (requires :meth:`FusedLayerKernel.can_fuse` for the noise-free
      regime);
    * ``delegate`` — :meth:`FusedLayerKernel.mvm_batch` over
      :func:`_input_codes`, which keeps the fused-noisy and per-engine
      paths (remapped tiles, on-lattice faulted arrays, read noise,
      and every layer when the plan runs with ``fused=False``).

    Dense steps drive one vector per sample, conv steps one per output
    pixel; the two share the quantiser (:meth:`_split`) and the SA
    digitiser (:meth:`_sense`) and differ only in layout.
    """

    def __init__(self, layer, programmed, pin: int) -> None:
        kernel = programmed.kernel
        spec = kernel.spec
        self.layer = layer
        # Weak: the programmed layer memoises the plan, so a strong
        # back-reference would make a reference cycle that keeps every
        # engine alive until a gc pass.
        self._programmed = weakref.ref(programmed)
        self.kernel = kernel
        self.pin = pin
        self.is_conv = isinstance(layer, Conv2D)
        self.lo_div = float(1 << (spec.pin // 2))
        self.inv_lo_div = 1.0 / self.lo_div
        self.t = kernel.total_cols
        self.rb = kernel.row_blocks
        self.rows_used = list(kernel.rows_used)
        self.rmax = max(self.rows_used)
        self.total_rows = kernel.total_rows
        self.offs = [0]
        for rows in self.rows_used:
            self.offs.append(self.offs[-1] + rows)
        w_cat = kernel.weight_stack()
        self.cdtype = w_cat.dtype
        self._w_ref = w_cat
        # Calibration constants, baked by _lower on the first run.
        self.in_fmt = None
        if self.is_conv:
            # Conv counts come out as W^T @ drive, one (2t, rows)
            # matrix per row block, so the vector axis stays innermost.
            self.w_rows = [
                np.ascontiguousarray(w_cat[i, :rows].T)
                for i, rows in enumerate(self.rows_used)
            ]
            return
        # Trimmed stacks: full-height blocks batch into one tensor,
        # short tail blocks keep their own right-sized matrices.
        self.full_idx = [
            i for i, r in enumerate(self.rows_used) if r == self.rmax
        ]
        self.tail_idx = [
            i for i, r in enumerate(self.rows_used) if r != self.rmax
        ]
        self.w_full = (
            np.ascontiguousarray(w_cat[self.full_idx])
            if self.full_idx
            else None
        )
        self.w_tails = [
            np.ascontiguousarray(w_cat[i, : self.rows_used[i]])
            for i in self.tail_idx
        ]
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
        # Shared lazy cache: read-only once built, and a concurrent
        # duplicate build is idempotent (deterministic values), so it
        # stays on the step; mutable scratch lives in the leased
        # :class:`PlanWorkspace` stores instead.
        self._w_pack: np.ndarray | None = None

    # -- compile-time pieces -------------------------------------------

    def valid(self) -> bool:
        """Whether the programmed state still matches this lowering.

        A step not lowered yet adopts (or freezes) whatever calibration
        its layer holds when it first runs.
        """
        programmed = self._programmed()
        if programmed is None or self.kernel._w_cat is not self._w_ref:
            return False
        return self.in_fmt is None or (
            programmed.in_fmt is self.in_fmt
            and programmed.output_shift == self.shift
        )

    def _lower(self, act: np.ndarray) -> None:
        """Bake the layer's calibration into this step's constants,
        freezing it from ``act`` (this first chunk) if it has none.

        ``in_fmt`` is assigned last: it marks the step lowered.
        """
        programmed = self._programmed()
        if programmed.in_fmt is None:
            freeze_calibration(self.layer, programmed, act, self.pin)
        in_fmt = programmed.in_fmt
        spec = self.kernel.spec
        self.shift = int(programmed.output_shift)
        self.scale = (
            (2.0 ** programmed.output_shift)
            * in_fmt.resolution
            * programmed.w_fmt.resolution
        )
        # Resolution is a power of two, so multiplying by its inverse
        # equals quantize_int's division.
        self.inv_in_res = 1.0 / in_fmt.resolution
        self.code_max = float(in_fmt.int_max)
        # The SA window of each [phase, half] part plane.  Count
        # planes are [phase, half] for dense steps and [half, phase]
        # for conv steps (see _conv_inline).
        pre, post = part_window(spec, self.shift)
        if self.is_conv:
            pre, post = pre.T, post.T
        self.pre_c = pre.reshape(1, 2, 1, 2, 1).astype(self.cdtype)
        self.post_c = (
            None
            if np.all(post == 1.0)
            else post.reshape(1, 2, 1, 2, 1).astype(self.cdtype)
        )
        # Inline exactness: the noise-free fused regime, plus every
        # digitised value representable in the count dtype.
        elem_ok = (
            self.cdtype != np.float32
            or ((1 << spec.po) - 1) * float(post.max()) < float(1 << 24)
        )
        self.inline_ok = self.kernel.can_fuse(with_noise=False) and elem_ok
        self.packed_ok = (
            not self.is_conv
            and self.inline_ok
            and self.cdtype == np.float32
            and self.sub_bound < (1 << (PACKED_FIELD_BITS - 1))
            and self.sub_bound * (self.pack_scale + 1.0) < float(1 << 24)
        )
        self.in_fmt = in_fmt

    def _packed_stack(self) -> np.ndarray:
        """(sub_blocks, PACKED_SUB_ROWS, cols) packed weight fields.

        Each 256-row block splits into 16-row sub-blocks whose hi/lo
        signed weight halves pack as ``hi * 2**12 + lo`` in one float32
        value.  A sub-block dot product against 3-bit input halves is
        bounded by ``16 * 7 * 15 = 1680 < 2**11``, so the packed
        product ``A * 2**12 + B`` stays below ``2**24`` (exact float32
        matmul) and ``rint(v / 2**12)`` recovers the hi field exactly
        (``|B| / 2**12 < 0.5``).
        """
        if self._w_pack is None:
            sub = PACKED_SUB_ROWS
            w_cat = self._w_ref
            w_pack = np.zeros((self.S, sub, self.t), dtype=np.float32)
            s0 = 0
            for i in range(self.rb):
                rows = self.rows_used[i]
                sc = self.sub_counts[i]
                padded = np.zeros((sc * sub, 2 * self.t), dtype=np.float32)
                padded[:rows] = w_cat[i, :rows]
                blocks = padded.reshape(sc, sub, 2 * self.t)
                w_pack[s0 : s0 + sc] = (
                    blocks[:, :, : self.t] * self.pack_scale
                    + blocks[:, :, self.t :]
                )
                s0 += sc
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

        ``store`` is this step's slot in the executing lease's
        :class:`PlanWorkspace` — never shared between concurrent
        executions, so everything below may be written in place.
        """
        buffers = self._stored(store, n)
        if buffers is None:
            # One extra column past the bias row: the all-zero sentinel
            # the packed gather map points tail padding at.  It stays
            # zero forever (quantising zero yields zero halves).
            width = self.total_rows + 1
            buffers = {
                "vecs": np.empty((n, width)),
                "q": np.empty((n, width)),
                "hi": np.empty((n, width)),
                "lo": np.empty((n, width)),
                "counts": np.empty(
                    (self.rb, 2 * n, 2 * self.t), dtype=self.cdtype
                ),
                "acc": np.empty((n, 2 * self.t)),
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
                (len(self.full_idx), 2 * n, self.rmax), dtype=self.cdtype
            )
            buffers["drive_tails"] = [
                np.empty((2 * n, self.rows_used[i]), dtype=self.cdtype)
                for i in self.tail_idx
            ]
        return buffers

    def _conv_buffers(self, shape: tuple, oh: int, ow: int, store: dict):
        """Preallocated conv working set for one input geometry.

        The padded pixel planes keep their zero border forever (only
        the interior is written), and the drive's bias row holds the
        constant code halves of input 1.
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
            drive[-1, 0] = hi
            drive[-1, 1] = one - hi * self.lo_div
            buffers = {
                "pix": np.zeros(planes),
                "q": np.empty(planes),
                "hl": np.empty((c, 2) + planes[1:], dtype=self.cdtype),
                "drive": drive,
                "counts": np.empty(
                    (self.rb, 2 * self.t, 2 * n), dtype=self.cdtype
                ),
                "acc": np.empty((self.t, n)),
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
                "executor.layer", layer=type(self.layer).__name__
            ):
                return self._run(act, with_noise, store, fused)
        return self._run(act, with_noise, store, fused)

    def _run(
        self, act: np.ndarray, with_noise: bool, store: dict, fused: bool
    ) -> np.ndarray:
        if self.is_conv:
            oh, ow = _conv_geometry(self.layer, act)
        elif act.ndim != 2:
            act = act.reshape(act.shape[0], -1)
        if self.in_fmt is None:
            self._lower(act)
        inline = (
            fused
            and self.inline_ok
            and not (with_noise and self.kernel._noisy(True))
        )
        if inline and self.is_conv:
            return self._conv_inline(act, oh, ow, store)
        if inline:
            return self._inline(act, store)
        result = self._delegate(act, with_noise, fused)
        if self.is_conv:
            return result.reshape(act.shape[0], oh, ow, self.t)
        return result

    def _delegate(
        self, act: np.ndarray, with_noise: bool, fused: bool
    ) -> np.ndarray:
        """The kernel's own dispatch: fused when it can fuse, the
        per-engine walk otherwise or when ``fused`` is off."""
        codes = _input_codes(self.layer, act, self.in_fmt)
        outputs = self.kernel.mvm_batch(
            codes,
            with_noise=with_noise,
            output_shift=self.shift,
            fused=fused and self.kernel.can_fuse(with_noise),
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

    def _inline(self, vectors: np.ndarray, store: dict) -> np.ndarray:
        n = vectors.shape[0]
        packed = self.packed_ok and n <= PACKED_MAX_VECS
        buffers = self._buffer_set(n, packed, store=store)
        vecs = buffers["vecs"]
        vecs[:, : self.total_rows - 1] = vectors
        hi, lo = buffers["hi"], buffers["lo"]
        self._split(vecs, buffers["q"], hi, lo)
        counts = buffers["counts"]
        if packed:
            self._packed_counts(hi, lo, counts, buffers, n)
        else:
            self._trimmed_counts(hi, lo, counts, buffers, n)
        self.kernel.charge(n, self.shift)
        # [block, phase, vector, half, col] planes.
        self._sense(counts.reshape(self.rb, 2, n, 2, self.t))
        acc = buffers["acc"]
        np.add.reduce(
            counts.reshape(self.rb * 2, n, 2 * self.t), axis=0, out=acc
        )
        out = buffers["out"]
        t = self.t
        np.add(acc[:, :t], acc[:, t:], out=out)
        out *= self.scale
        return out

    def _conv_inline(
        self, act: np.ndarray, oh: int, ow: int, store: dict
    ) -> np.ndarray:
        """Conv counts without a float64 patch matrix.

        Each padded input pixel is quantised and split once; the drive
        ``(rows, phase, vector)`` then fills by one slice copy per
        kernel offset, and ``W^T @ drive`` per row block yields count
        planes ``[block, half, col, phase, vector]`` whose long vector
        axis is innermost for the digitisation and the reduction.
        """
        b, h, w, _ = act.shape
        n = b * oh * ow
        buffers = self._conv_buffers(act.shape, oh, ow, store)
        pix, hl, drive = buffers["pix"], buffers["hl"], buffers["drive"]
        p = self.layer.pad
        pix[:, :, p : p + h, p : p + w] = act.transpose(3, 0, 1, 2)
        self._split(pix, buffers["q"], hl[:, 0], hl[:, 1])
        _gather_patches(hl, self.layer.kernel, drive)
        counts = buffers["counts"]
        flat = drive.reshape(self.total_rows, 2 * n)
        for i, w_rows in enumerate(self.w_rows):
            np.matmul(
                w_rows,
                flat[self.offs[i] : self.offs[i + 1]],
                out=counts[i],
            )
        self.kernel.charge(n, self.shift)
        parts = counts.reshape(self.rb, 2, self.t, 2, n)
        self._sense(parts)
        acc = buffers["acc"]
        np.add.reduce(parts, axis=(0, 1, 3), out=acc)
        out = buffers["out"]
        np.multiply(acc.T, self.scale, out=out)
        return out.reshape(b, oh, ow, self.t)

    def _trimmed_counts(self, hi, lo, counts, buffers, n: int) -> None:
        """Count planes via the trimmed full/tail weight stacks."""
        drive = buffers["drive_full"]
        for j, i in enumerate(self.full_idx):
            off = self.offs[i]
            drive[j, :n] = hi[:, off : off + self.rmax]
            drive[j, n:] = lo[:, off : off + self.rmax]
        if self.full_idx:
            np.matmul(drive, self.w_full, out=counts[: len(self.full_idx)])
        for j, i in enumerate(self.tail_idx):
            off = self.offs[i]
            rows = self.rows_used[i]
            tail = buffers["drive_tails"][j]
            tail[:n] = hi[:, off : off + rows]
            tail[n:] = lo[:, off : off + rows]
            np.matmul(
                tail,
                self.w_tails[j],
                out=counts[len(self.full_idx) + j],
            )

    def _packed_counts(self, hi, lo, counts, buffers, n: int) -> None:
        """Count planes via the packed micro-batch stack.

        The row-block order of ``counts`` matches the layer layout;
        only the field extraction differs from the trimmed path, and
        every step is exact (see :meth:`_packed_stack`).
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
        # ones-vector GEMV sums the sub-blocks.  The P restore folds
        # into the reduced array, which is 16x smaller.
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
        counts[:, :, t:] *= self.pack_scale

    def _sense(self, parts: np.ndarray) -> None:
        """In-place SA digitisation of the four partial-product planes.

        ``parts`` views the count planes with the drive phase and the
        weight half as two length-2 axes, in the order ``pre_c`` and
        ``post_c`` were baked for, and goes through the one SA transfer
        function (:func:`~repro.crossbar.sense.digitise`).  The
        digitised values stay exact by the compile-time bounds, so
        summing the planes into a float64 buffer reproduces the walk's
        int64 totals bit for bit.
        """
        digitise(
            parts, self.pre_c, self.post_c, self.kernel.spec.po, out=parts
        )


class CompiledPlan:
    """A programmed network lowered into one flat execution schedule.

    Built by :meth:`compile` from a programmed-layer chain, calibrated
    or not (the first execution freezes what is missing, step by step);
    :meth:`execute` runs each chunk of ``run_functional``.  The plan
    holds *references* to the programmed
    state (engines, kernels, formats) — :meth:`matches` detects
    reprogramming / recalibration / kernel invalidation, and the
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
        # Workspace lease pool: each concurrent execute() holds its own
        # scratch stores, making the plan re-entrant over the shared
        # read-only weight stacks (thread replicas, PR 10).
        self._ws_lock = threading.Lock()
        self._ws_free: list[PlanWorkspace] = []
        self._ws_allocated = 0
        # exact(with_noise), memoised per noise regime.
        self._exact: dict[bool, bool] = {}

    # -- workspace leasing ---------------------------------------------

    def _lease(self) -> PlanWorkspace:
        with self._ws_lock:
            if self._ws_free:
                return self._ws_free.pop()
            self._ws_allocated += 1
        return PlanWorkspace(len(self.steps))

    def _release(self, workspace: PlanWorkspace) -> None:
        with self._ws_lock:
            self._ws_free.append(workspace)

    @property
    def workspaces_allocated(self) -> int:
        """Workspaces ever created (peak concurrency watermark)."""
        with self._ws_lock:
            return self._ws_allocated

    @property
    def leases_outstanding(self) -> int:
        """Workspaces currently held by an in-flight execution."""
        with self._ws_lock:
            return self._ws_allocated - len(self._ws_free)

    def prewarm(self, count: int) -> None:
        """Ensure at least ``count`` workspaces exist in the pool.

        Scale-up cost for a thread replica is exactly this: allocate
        scratch stores (microseconds), never re-program weights.
        """
        with self._ws_lock:
            missing = count - self._ws_allocated
            if missing <= 0:
                return
            self._ws_allocated += missing
            self._ws_free.extend(
                PlanWorkspace(len(self.steps)) for _ in range(missing)
            )

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

        Identity of the network, the programmed layers, the frozen
        calibration objects, and the kernels' cached weight stacks —
        any reprogramming or recalibration (``reset_calibration``)
        breaks one of these and triggers a recompile.
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

        Exact means every weight layer's arrays are ideal and the call
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
                step.kernel.is_ideal and not step.kernel._noisy(with_noise)
                for step in self.steps
                if isinstance(step, _WeightStep)
            )
            self._exact[with_noise] = flag
        return flag

    def execute(
        self, act: np.ndarray, with_noise: bool = False, fused: bool = True
    ):
        """One chunk's pass through the flat step list.

        ``fused=False`` delegates every weight step to the per-engine
        walk, the semantic reference.  Re-entrant: each call leases a
        private :class:`PlanWorkspace` for its scratch buffers
        (released in ``finally``, so the pool returns to full even when
        a step raises) while the weight stacks stay shared and
        read-only.  The final activation is
        copied out when the last step is a weight layer: its inline
        path returns a workspace buffer that the workspace's next
        execution would otherwise overwrite in place.  The first
        execution over an uncalibrated chain freezes its calibration,
        a state mutation: it must not race another execution (thread
        serving runs it under the state's write lock).  The step loop
        holds a place in the process's BLAS thread budget
        (:func:`repro.perf.blas.forward`), so concurrent exact
        forwards share the BLAS threads instead of oversubscribing
        them.
        """
        workspace = self._lease()
        try:
            with blas.forward(self.exact(with_noise)):
                for step, store in zip(self.steps, workspace.stores):
                    act = step.run(act, with_noise, store, fused)
            if isinstance(self.steps[-1], _WeightStep):
                act = act.copy()
        finally:
            self._release(workspace)
        return act
