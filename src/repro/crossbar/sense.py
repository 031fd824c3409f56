"""Reconfigurable sense amplifier (Fig. 4 C).

The SA digitises a count-domain analog value with a precision
configurable from 1 bit up to ``Po`` bits (a fabricated design from
Li et al., IMW'11); the model always converts at the full ``Po``
bits, ``CrossbarParams.output_bits``.  A counter steps the reference
level; the result lands in the output register.  The
precision-control circuit (register + adder) accumulates multiple
truncated conversions so low-precision cells can realise a
high-precision weight — the digital half of the composing scheme.

The SA has one transfer function, :func:`digitise`, and
:func:`part_window` gives each partial product of a composed MVM its
window in it (Eq. 3-9).  Every functional tier digitises through these
two: the per-engine walk
(:class:`~repro.crossbar.engine.CrossbarMVMEngine`), the compiled
plan, and the paper's literal integer model,
:func:`repro.precision.composing.composed_dot`, at the fixed Eq. 3
window.  Each engine counts its conversions in ``sa_conversions``,
charged by :func:`~repro.crossbar.engine.charge_firings`.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.precision.composing import ComposingSpec

#: Partial products by ``[input half, weight half]``, 0 = high half:
#: the layout of the ``(2, 2)`` windows :func:`part_window` returns.
PART_GRID = (("HH", "LH"), ("HL", "LL"))


@functools.lru_cache(maxsize=256)
def part_window(
    spec: ComposingSpec, output_shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each partial product's SA window at ``output_shift``.

    Part ``X``, of Eq. 8 weight ``2**w`` (``spec.part_exponents``),
    is sensed as ``trunc(c * pre)`` and aligned into the output
    register by ``post``, where ``s = max(0, output_shift - w)``,
    ``pre = 2**-s`` and ``post = 2**(w - output_shift + s)``.  A part
    whose window lies wholly below the register (``s >=
    part_full_bits``) gets ``pre = post = 0``: it contributes nothing
    and is not converted.

    Returns read-only float64 ``(2, 2)`` arrays laid out as
    :data:`PART_GRID`, cached per ``(spec, output_shift)`` because hot
    paths ask once per layer call.
    """
    exps = spec.part_exponents
    w = np.array([[exps[part] for part in row] for row in PART_GRID])
    s = np.maximum(0, output_shift - w)
    active = s < spec.part_full_bits
    pre = np.where(active, 2.0 ** -s, 0.0)
    post = np.where(active, 2.0 ** (w - output_shift + s), 0.0)
    pre.flags.writeable = False
    post.flags.writeable = False
    return pre, post


def digitise(
    counts: np.ndarray,
    pre,
    post,
    bits: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The SA transfer function, ``clip(trunc(c * pre), ±L) * post``.

    Each count is scaled into the SA window (``pre``), truncated
    toward zero — the SA keeps the top bits of a magnitude and the
    differential front end restores its sign — saturated at the
    ``bits``-bit register's full scale ``L = 2**bits - 1``, and aligned
    by the precision-control adder (``post``).  ``None`` skips an
    all-ones factor: the compiled plan passes ``pre=None`` when its
    counts already carry the window.  ``pre`` and ``post`` broadcast
    against ``counts`` (see :func:`part_window`).  Exact for integer
    and continuous counts alike, since both factors are powers of two.
    Writes into ``out`` when given, which may be ``counts`` itself,
    and returns the float result.
    """
    limit = float((1 << bits) - 1)
    if pre is None:
        out = np.trunc(counts, out=out)
    else:
        out = np.multiply(counts, pre, out=out)
        np.trunc(out, out=out)
    np.clip(out, -limit, limit, out=out)
    if post is not None:
        out *= post
    return out
