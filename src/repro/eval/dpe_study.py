"""Dot-Product-Engine output-precision study (§III-D anchor).

The paper grounds its precision assumptions in the HP Labs DPE result
(Hu et al.): for a 256×256 crossbar with full-precision inputs, 4-bit
synaptic weights achieve ~6-bit output precision and 6-bit weights
~7-bit, once crossbar noise is accounted for.  This module measures
the same quantity on our functional crossbar: the effective number of
output bits (ENOB) of an analog dot product against the ideal
full-precision result, as a function of cell precision, programming
variation, and read noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import WorkloadError
from repro.crossbar.pair import DifferentialPair
from repro.params.crossbar import CrossbarParams
from repro.params.reram import ReRAMDeviceParams


@dataclass
class DpeStudyResult:
    """Effective output bits per weight precision."""

    rows: int
    trials: int
    #: weight bits -> effective number of output bits
    enob: dict[int, float] = field(default_factory=dict)


def effective_output_bits(
    signal: np.ndarray, error: np.ndarray
) -> float:
    """ENOB of an analog quantity vs its ideal value.

    Standard ADC formula: ``ENOB = (SNR_dB - 1.76) / 6.02`` with
    ``SNR = rms(signal) / rms(error)``.
    """
    rms_signal = float(np.sqrt(np.mean(np.square(signal))))
    rms_error = float(np.sqrt(np.mean(np.square(error))))
    if rms_signal <= 0:
        raise WorkloadError("signal power must be positive")
    if rms_error <= 0:
        return float("inf")
    snr_db = 20.0 * np.log10(rms_signal / rms_error)
    return (snr_db - 1.76) / 6.02


def measure_enob(
    weight_bits: int,
    rows: int = 256,
    cols: int = 64,
    trials: int = 24,
    programming_sigma: float = 0.03,
    read_noise_sigma: float = 0.005,
    seed: int = 0,
) -> float:
    """ENOB of one crossbar configuration.

    Random signed weight matrices are quantised to ``weight_bits``
    levels, programmed into a differential pair with the given device
    non-idealities, and driven with full-precision (continuous-valued)
    inputs; the analog bitline result is compared against the ideal
    real-valued dot product.
    """
    if weight_bits < 1 or weight_bits > 7:
        raise WorkloadError("weight_bits must be in [1, 7]")
    device = ReRAMDeviceParams(
        mlc_bits=weight_bits,
        programming_sigma=programming_sigma,
        read_noise_sigma=read_noise_sigma,
    )
    params = CrossbarParams(
        rows=rows,
        cols=cols,
        sense_amps=8 if cols % 8 == 0 else 1,
        cell_bits=weight_bits,
        device=device,
        compose_inputs=False,
        compose_weights=False,
    )
    rng = np.random.default_rng(seed)
    device_rng = np.random.default_rng(seed + 1)
    level_max = device.mlc_levels - 1
    # Batched per-trial draws: all weight matrices and input vectors
    # come from two vectorised calls instead of 2×trials small ones.
    # real-valued weights in [-1, 1] quantised onto cell levels
    w_true = rng.uniform(-1.0, 1.0, (trials, rows, cols))
    levels = np.rint(w_true * level_max).astype(np.int64)
    # full-precision inputs: continuous voltages in [0, 1]
    codes = np.rint(
        rng.random((trials, rows)) * (params.input_levels - 1)
    ).astype(np.int64)
    # The reference is the *real-valued* dot product, so the error
    # folds in weight quantisation + variation + read noise — the
    # quantities the DPE experiment combines.
    ideal = np.einsum(
        "tr,trc->tc", codes.astype(np.float64), w_true * level_max
    )
    errors = np.empty_like(ideal)
    # Programming consumes device_rng state trial by trial, so the
    # pair loop stays sequential (and deterministic in trial order).
    for t in range(trials):
        pair = DifferentialPair(params, rng=device_rng)
        pair.program_signed_levels(levels[t])
        analog = pair.analog_mvm_counts(codes[t], with_noise=True)
        errors[t] = analog - ideal[t]
    return effective_output_bits(ideal.ravel(), errors.ravel())


def dpe_study(
    weight_bit_range: tuple[int, ...] = (2, 3, 4, 5, 6),
    rows: int = 256,
    trials: int = 16,
    seed: int = 0,
) -> DpeStudyResult:
    """Sweep cell precision and record the effective output bits.

    Expected shape (the paper's §III-D quote of the DPE results): the
    effective output precision rises with cell precision roughly a bit
    per bit until analog non-idealities flatten the curve in the 6-7
    bit region.

    Each precision point is a pure function of ``(weight_bits, rows,
    trials, seed)``, so a point does not depend on the others swept.
    """
    with telemetry.span(
        "eval.dpe_study", points=len(weight_bit_range), trials=trials
    ):
        enob = {
            wb: measure_enob(wb, rows=rows, trials=trials, seed=seed)
            for wb in weight_bit_range
        }
    return DpeStudyResult(rows=rows, trials=trials, enob=enob)
