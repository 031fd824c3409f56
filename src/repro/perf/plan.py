"""Plan-compiled megakernel: whole-network functional execution.

The fused kernels (PR 3) collapsed each mapped layer's tile walk into
a handful of batched matmuls, but :meth:`PrimeExecutor.run_functional`
still interprets the network layer by layer on every chunk: rebuild
the bias-augmented vector matrix, quantize through ``DynamicFixedPoint``
object calls, round-trip codes through ``int64``, re-derive the
digitisation constants, and allocate every intermediate afresh.
:class:`CompiledPlan` lowers a calibrated :class:`ProgrammedLayer`
chain into a flat step list once, at deploy time:

* weight/conductance stacks are trimmed and cached per layer (full
  256-row blocks evaluate as one batched matmul; short tail blocks get
  their own right-sized matmul instead of padding to the block size);
* the frozen calibration formats are baked into scalar constants
  (``1/resolution``, saturation bounds, per-part digitisation pre/post
  factors), so no format objects are touched on the hot path;
* quantisation, the hi/lo drive split, digitisation, and the output
  scale all run in place on preallocated buffers that persist across
  chunks and batches of the same width;
* conv layers gather their im2col patches through a precomputed index
  map instead of a Python loop over kernel offsets;
* micro-batches (``<= PACKED_MAX_VECS`` vectors) evaluate through a
  *packed* weight stack that fuses the hi/lo weight halves into one
  float32 field pair — halving the streamed weight bytes in the
  latency regime where the matmul is bandwidth-bound.

Exactness: with noise off on ideal arrays every intermediate is an
integer inside the float dtype's contiguous-integer range (the same
invariant :class:`FusedLayerKernel` relies on), so the compiled path
is bit-identical to the fused and per-engine paths.  The packed stack
keeps two 12-bit-separated integer fields whose dot products stay
below ``2**24`` per 16-row sub-block, so float32 matmul and ``rint``
field extraction are exact too.  On arrays programmed with variation
the kernel's stack holds float64 differential cell weights instead;
the same trimmed inline path runs them (never the packed one), and
its truncating digitisation matches the kernel's and the walk's.
Layers that cannot take the inline path (read noise on,
resilience-remapped tiles, on-lattice faulted arrays) delegate to
``FusedLayerKernel.mvm_batch``, which applies its own fused-noisy or
per-engine fallback — semantics, seeded noise reproducibility, and
telemetry counters are preserved in every case.

``PRIME_PLAN_COMPILE=0`` disables compilation (the executor falls back
to the per-layer interpreter); compilation failures warn once per
programmed plan and surface as the ``perf.plan.fallback`` counter.
"""

from __future__ import annotations

import logging
import os
import threading
import weakref

import numpy as np

from repro import telemetry
from repro.errors import ExecutionError
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential

__all__ = [
    "plan_compile_enabled",
    "PlanFallbackWarning",
    "PlanCompileError",
    "PlanWorkspace",
    "CompiledPlan",
]

logger = logging.getLogger("repro.perf")

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


class PlanFallbackWarning(RuntimeWarning):
    """A compiled plan was requested but could not be built; execution
    fell back to the per-layer interpreter (also counted as
    ``perf.plan.fallback``)."""


class PlanCompileError(ExecutionError):
    """The programmed state cannot be lowered into a compiled plan."""


def plan_compile_enabled() -> bool:
    """Whether plan compilation is enabled (``PRIME_PLAN_COMPILE``).

    ``"0"`` disables; unset/``"1"`` enable.  Any other value logs a
    warning and keeps the default rather than raising mid-inference,
    mirroring the other ``PRIME_*`` knobs.
    """
    env = os.environ.get("PRIME_PLAN_COMPILE", "").strip()
    if env in ("", "1"):
        return True
    if env == "0":
        return False
    logger.warning(
        "PRIME_PLAN_COMPILE must be 0 or 1, got %r; keeping the "
        "default (enabled)",
        env,
    )
    telemetry.count("perf.env.invalid", knob="PRIME_PLAN_COMPILE")
    return True


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
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        return self.layer.forward(act)


class _WeightStep:
    """One mapped weight layer, lowered to preallocated array math.

    Two execution paths share the precomputed quantisation front end:

    * ``inline`` — the noise-free count-domain math, fully in place
      (requires :meth:`FusedLayerKernel.can_fuse` for the noise-free
      regime at compile time);
    * ``delegate`` — :meth:`FusedLayerKernel.mvm_batch`, which keeps
      the fused-noisy and per-engine fallbacks (remapped tiles,
      on-lattice faulted arrays, read noise) bit-identical to the
      interpreter.
    """

    def __init__(self, layer, programmed, pin: int) -> None:
        kernel = programmed.kernel
        spec = kernel.spec
        if programmed.in_fmt is None or programmed.output_shift is None:
            raise PlanCompileError(
                "cannot compile an uncalibrated layer; run a "
                "calibration batch first"
            )
        self.layer = layer
        # Weak: the programmed layer memoises the plan, so a strong
        # back-reference would make a reference cycle that keeps every
        # engine alive until a gc pass.
        self._programmed = weakref.ref(programmed)
        self.kernel = kernel
        self.is_conv = isinstance(layer, Conv2D)
        self.in_fmt = programmed.in_fmt
        self.shift = int(programmed.output_shift)
        self.scale = (
            (2.0 ** programmed.output_shift)
            * programmed.in_fmt.resolution
            * programmed.w_fmt.resolution
        )
        # Baked calibration constants: resolution is a power of two,
        # so multiplying by its inverse equals quantize_int's division.
        self.inv_in_res = 1.0 / self.in_fmt.resolution
        self.code_max = float(self.in_fmt.int_max)
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
        # Digitisation constants (engine Eq. 8): [phase, half] part
        # weights -> SA pre-shift and post-scale, zero for parts whose
        # window lies entirely below the SA register.
        pws = np.array(
            [
                [(spec.pin + spec.pw) // 2, spec.pin // 2],
                [spec.pw // 2, 0],
            ]
        )
        shifts = np.maximum(0, self.shift - pws)
        active = shifts < spec.part_full_bits
        self.pre = np.where(active, 2.0 ** -shifts.astype(np.float64), 0.0)
        self.post = np.where(active, 2.0 ** (pws - self.shift + shifts), 0.0)
        self.post_is_one = bool(active.all() and np.all(self.post == 1.0))
        self.limit = float((1 << spec.po) - 1)
        # Inline exactness: the noise-free fused regime, plus every
        # digitised value representable in the count dtype.
        w_cat = kernel.weight_stack()
        self.cdtype = w_cat.dtype
        elem_ok = (
            self.cdtype != np.float32
            or self.limit * float(self.post.max()) < float(1 << 24)
        )
        self.inline_ok = kernel.can_fuse(with_noise=False) and elem_ok
        self.pre_c = self.pre.reshape(1, 2, 1, 2, 1).astype(self.cdtype)
        self.post_c = self.post.reshape(1, 2, 1, 2, 1).astype(self.cdtype)
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
        self._w_ref = w_cat
        # Packed micro-batch stack, built lazily on first use.
        in_max = (1 << (spec.pin - spec.pin // 2)) - 1
        w_max = (1 << (spec.pw - spec.pw // 2)) - 1
        sub_bound = PACKED_SUB_ROWS * in_max * w_max
        self.pack_scale = float(1 << PACKED_FIELD_BITS)
        self.packed_ok = (
            self.inline_ok
            and self.cdtype == np.float32
            and sub_bound < (1 << (PACKED_FIELD_BITS - 1))
            and sub_bound * (self.pack_scale + 1.0) < float(1 << 24)
        )
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
        # Shared lazy caches: read-only once built, and a concurrent
        # duplicate build is idempotent (deterministic values), so they
        # stay on the step; mutable scratch lives in the leased
        # :class:`PlanWorkspace` stores instead.
        self._w_pack: np.ndarray | None = None
        self._im2col: dict[tuple, tuple] = {}

    # -- compile-time pieces -------------------------------------------

    def valid(self) -> bool:
        """Whether the programmed state still matches this lowering."""
        programmed = self._programmed()
        return (
            programmed is not None
            and programmed.in_fmt is self.in_fmt
            and programmed.output_shift == self.shift
            and self.kernel._w_cat is self._w_ref
        )

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

    def _buffer_set(self, n: int, packed: bool, store: dict) -> dict:
        """Preallocated working set for ``n`` input vectors.

        ``store`` is this step's slot in the executing lease's
        :class:`PlanWorkspace` — never shared between concurrent
        executions, so everything below may be written in place.
        """
        buffers = store.get(n)
        if buffers is None:
            if len(store) >= _MAX_BUFFER_SETS:
                store.pop(next(iter(store)))
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

    def _im2col_map(self, shape: tuple) -> tuple:
        """Precomputed patch-gather index map for one input geometry."""
        cached = self._im2col.get(shape)
        if cached is None:
            h, w, c = shape
            p = self.layer.pad
            hp, wp = h + 2 * p, w + 2 * p
            k = self.layer.kernel
            oh, ow = hp - k + 1, wp - k + 1
            # (oh, ow, k, k, c) flat indices into one padded sample.
            i0 = np.arange(oh)[:, None, None, None, None]
            j0 = np.arange(ow)[None, :, None, None, None]
            di = np.arange(k)[None, None, :, None, None]
            dj = np.arange(k)[None, None, None, :, None]
            ch = np.arange(c)[None, None, None, None, :]
            idx = ((i0 + di) * wp + (j0 + dj)) * c + ch
            cached = (idx.reshape(-1), oh, ow)
            self._im2col[shape] = cached
        return cached

    # -- execution ------------------------------------------------------

    def run(
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        if telemetry.enabled():
            with telemetry.span(
                "executor.layer", layer=type(self.layer).__name__
            ):
                return self._run(act, with_noise, store)
        return self._run(act, with_noise, store)

    def _run(
        self, act: np.ndarray, with_noise: bool, store: dict
    ) -> np.ndarray:
        spatial = None
        if self.is_conv:
            if act.ndim != 4:
                raise ExecutionError(
                    f"conv layer expects image activations, got "
                    f"{act.shape}"
                )
            idx, oh, ow = self._im2col_map(act.shape[1:])
            if self.layer.pad:
                p = self.layer.pad
                act = np.pad(act, ((0, 0), (p, p), (p, p), (0, 0)))
            b = act.shape[0]
            vectors = act.reshape(b, -1)[:, idx].reshape(b * oh * ow, -1)
            spatial = (b, oh, ow)
        else:
            if act.ndim != 2:
                act = act.reshape(act.shape[0], -1)
            vectors = act
        inline = self.inline_ok and not (
            with_noise and self.kernel._noisy(True)
        )
        if not inline:
            result = self._delegate(vectors, with_noise, store)
        else:
            result = self._inline(vectors, store)
        if spatial is not None:
            b, oh, ow = spatial
            result = result.reshape(b, oh, ow, -1)
        return result

    def _delegate(self, vectors: np.ndarray, with_noise: bool, store: dict):
        """The interpreter's math (kernel dispatch included), with the
        bias column staged through the persistent buffer."""
        n = vectors.shape[0]
        buffers = self._buffer_set(n, packed=False, store=store)
        vecs = buffers["vecs"]
        vecs[:, : self.total_rows - 1] = vectors
        codes = self.in_fmt.quantize_int(
            np.clip(vecs[:, : self.total_rows], 0.0, None)
        )
        outputs = self.kernel.mvm_batch(
            codes, with_noise=with_noise, output_shift=self.shift
        )
        return outputs * self.scale

    def _quantize_split(self, vectors: np.ndarray, buffers: dict):
        """Fused quantise -> hi/lo drive halves, no int64 round trip.

        Bit-identical to ``in_fmt.quantize_int`` + ``split_unsigned``:
        the resolution is a power of two (exact scaling), rint/floor on
        exact float integers match the integer shifts, and clipping
        after rounding equals clipping before (negatives round toward
        zero either way).
        """
        vecs = buffers["vecs"]
        vecs[:, : self.total_rows - 1] = vectors
        q = buffers["q"]
        np.multiply(vecs, self.inv_in_res, out=q)
        np.rint(q, out=q)
        np.clip(q, 0.0, self.code_max, out=q)
        hi, lo = buffers["hi"], buffers["lo"]
        np.multiply(q, self.inv_lo_div, out=hi)
        np.floor(hi, out=hi)
        np.multiply(hi, -self.lo_div, out=lo)
        lo += q
        return hi, lo

    def _inline(self, vectors: np.ndarray, store: dict) -> np.ndarray:
        n = vectors.shape[0]
        packed = self.packed_ok and n <= PACKED_MAX_VECS
        buffers = self._buffer_set(n, packed, store=store)
        hi, lo = self._quantize_split(vectors, buffers)
        counts = buffers["counts"]
        if packed:
            self._packed_counts(hi, lo, counts, buffers, n)
        else:
            self._trimmed_counts(hi, lo, counts, buffers, n)
        self.kernel.charge(n, self.shift)
        return self._digitise(counts, buffers, n)

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

    def _digitise(self, counts, buffers, n: int) -> np.ndarray:
        """In-place SA digitisation with the output scale folded in.

        ``clip(trunc(c * pre), -limit, limit)`` equals the engine's
        ``sign * min(floor(|c| / 2**shift), limit)`` (truncation toward
        zero) for integer and continuous counts alike, and the
        digitised products/partial sums stay exact by the compile-time
        bounds, so accumulating the planes into a float64 buffer
        reproduces the interpreter's int64 totals bit for bit.
        """
        parts = counts.reshape(self.rb, 2, n, 2, self.t)
        parts *= self.pre_c
        np.trunc(parts, out=parts)
        np.clip(parts, -self.limit, self.limit, out=parts)
        if not self.post_is_one:
            parts *= self.post_c
        acc = buffers["acc"]
        np.add.reduce(
            counts.reshape(self.rb * 2, n, 2 * self.t), axis=0, out=acc
        )
        out = buffers["out"]
        t = self.t
        np.add(acc[:, :t], acc[:, t:], out=out)
        out *= self.scale
        return out


class CompiledPlan:
    """A programmed network lowered into one flat execution schedule.

    Built by :meth:`compile` from a calibrated programmed-layer chain;
    :meth:`execute` replaces the per-layer loop inside
    ``run_functional``.  The plan holds *references* to the programmed
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

        Raises :class:`PlanCompileError` when the programmed state is
        uncalibrated or does not line up with the network's weight
        layers.
        """
        weight_layers = [
            l for l in network.layers if isinstance(l, (Dense, Conv2D))
        ]
        if len(weight_layers) != len(layers):
            raise PlanCompileError(
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
        any reprogramming or recalibration breaks one of these and
        triggers a recompile.
        """
        return (
            self.network is network
            and self.pin == pin
            and len(self._layers) == len(layers)
            and all(ref() is b for ref, b in zip(self._layers, layers))
            and all(step.valid() for step in self.steps)
        )

    def execute(self, act: np.ndarray, with_noise: bool = False):
        """One chunk's pass through the flat step list.

        Re-entrant: each call leases a private :class:`PlanWorkspace`
        for its scratch buffers (released in ``finally``, so the pool
        returns to full even when a step raises) while the weight
        stacks stay shared and read-only.  The final activation is
        copied out when the last step is a weight layer: its inline
        path returns a workspace buffer that the workspace's next
        execution would otherwise overwrite in place.
        """
        workspace = self._lease()
        try:
            for step, store in zip(self.steps, workspace.stores):
                act = step.run(act, with_noise, store)
            if isinstance(self.steps[-1], _WeightStep):
                act = act.copy()
        finally:
            self._release(workspace)
        return act
