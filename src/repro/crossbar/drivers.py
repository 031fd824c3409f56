"""Wordline decoder/driver with multi-level voltage sources (Fig. 4 A).

In computation mode every wordline must be driven simultaneously with
one of ``2**input_bits`` analog voltage levels.  The driver latches the
digital input vector, selects the voltage-source combination per line,
and drives the array through per-line current amplifiers.  In memory
mode it falls back to the two-level read/write voltages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CrossbarError
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR


class WordlineDriver:
    """Latched multi-level wordline driver for one mat."""

    def __init__(self, params: CrossbarParams = DEFAULT_CROSSBAR) -> None:
        self.params = params
        self._latch = np.zeros(params.rows, dtype=np.int64)
        self.compute_mode = False

    @property
    def latch(self) -> np.ndarray:
        """Currently latched DAC codes (copy)."""
        return self._latch.copy()

    def set_compute_mode(self, enabled: bool) -> None:
        """Switch the voltage multiplexer between memory and compute."""
        self.compute_mode = enabled
        if not enabled:
            self._latch[:] = 0

    def latch_inputs(self, codes: np.ndarray) -> None:
        """Latch a vector of DAC codes, one per wordline.

        Codes must fit the driver's level count; shorter vectors are
        zero-extended (unused rows are driven to 0 V so they do not
        contribute current).
        """
        if not self.compute_mode:
            raise CrossbarError("latch_inputs requires compute mode")
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise CrossbarError("input codes must be a vector")
        if codes.shape[0] > self.params.rows:
            raise CrossbarError(
                f"{codes.shape[0]} codes exceed {self.params.rows} wordlines"
            )
        if np.any(codes < 0) or np.any(codes >= self.params.input_levels):
            raise CrossbarError(
                f"codes outside [0, {self.params.input_levels})"
            )
        self._latch[:] = 0
        self._latch[: codes.shape[0]] = codes.astype(np.int64)

    def quantize_inputs(self, values: np.ndarray) -> np.ndarray:
        """Real values in [0, 1] → DAC codes.

        The driver's DAC is linear over [0, v_read]; inputs are expected
        pre-normalised by the dynamic fixed-point pipeline.
        """
        values = np.asarray(values, dtype=np.float64)
        if np.any(values < -1e-9) or np.any(values > 1.0 + 1e-9):
            raise CrossbarError("driver inputs must be normalised to [0, 1]")
        top = self.params.input_levels - 1
        return np.clip(np.rint(values * top), 0, top).astype(np.int64)
