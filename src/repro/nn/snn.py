"""Spiking neural networks on PRIME (the paper's stated future work).

§II-B closes with "ReRAM can also implement SNN.  Making PRIME to
support SNN is our future work."  This module provides that extension
using the standard rate-coded ANN→SNN conversion (Diehl et al.):

* a trained ReLU network is converted layer by layer, scaling weights
  by the observed activation range so firing rates stay in [0, 1];
* inference integrates leaky-integrate-and-fire (LIF) neurons over T
  timesteps; inputs spike with probability equal to the pixel value;
* spikes are *binary*, so a crossbar evaluates a whole timestep with
  single-level wordline drives — no input composing needed, which is
  exactly why ReRAM SNN hardware is attractive.

The crossbar backend programs :class:`~repro.crossbar.CrossbarMVMEngine`
tiles and runs each layer's 0/1 input codes through the inference
datapath (:func:`repro.perf.plan.run_layer`), making PRIME's FF mats
the synaptic arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.network import Sequential
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.perf.plan import run_layer
from repro.precision.dynamic_fixed_point import (
    DynamicFixedPoint,
    quantize_with_bias,
)


@dataclass
class LIFState:
    """Membrane state of one spiking layer for a batch."""

    potential: np.ndarray

    @classmethod
    def zeros(cls, batch: int, neurons: int) -> "LIFState":
        return cls(potential=np.zeros((batch, neurons)))


class LIFLayer:
    """Leaky-integrate-and-fire neurons with soft reset.

    ``V <- leak * V + I``; a neuron spikes when ``V >= threshold`` and
    the threshold is subtracted (soft reset preserves rate coding).
    """

    def __init__(
        self,
        neurons: int,
        threshold: float = 1.0,
        leak: float = 1.0,
    ) -> None:
        if neurons < 1:
            raise WorkloadError("LIF layer needs at least one neuron")
        if threshold <= 0:
            raise WorkloadError("threshold must be positive")
        if not 0.0 < leak <= 1.0:
            raise WorkloadError("leak must be in (0, 1]")
        self.neurons = neurons
        self.threshold = threshold
        self.leak = leak

    def init_state(self, batch: int) -> LIFState:
        """Fresh membrane state for a batch."""
        return LIFState.zeros(batch, self.neurons)

    def step(self, state: LIFState, current: np.ndarray) -> np.ndarray:
        """Advance one timestep; returns the 0/1 spike matrix."""
        if current.shape != state.potential.shape:
            raise WorkloadError(
                f"current shape {current.shape} != state "
                f"{state.potential.shape}"
            )
        state.potential *= self.leak
        state.potential += current
        spikes = (state.potential >= self.threshold).astype(np.float64)
        state.potential -= spikes * self.threshold
        return spikes


@dataclass
class SpikingLayer:
    """One converted layer: normalised weights + LIF neurons."""

    weight: np.ndarray
    bias: np.ndarray
    lif: LIFLayer
    #: The programmed tiles and formats and the layer-wide SA window.
    crossbar: ProgrammedLayer | None = None

    @property
    def tiles(self) -> list:
        """Crossbar tiles [row_block][col_block] once programmed."""
        return [] if self.crossbar is None else self.crossbar.tiles

    @property
    def programmed(self) -> bool:
        """True once the layer lives on crossbar engines."""
        return self.crossbar is not None


@dataclass
class SnnRunResult:
    """Spike counts and derived predictions of one run."""

    spike_counts: np.ndarray
    timesteps: int

    @property
    def rates(self) -> np.ndarray:
        """Output firing rates in [0, 1]."""
        return self.spike_counts / self.timesteps

    def predict(self) -> np.ndarray:
        """Class with the highest output spike count."""
        return np.argmax(self.spike_counts, axis=1)


class SpikingNetwork:
    """A rate-coded SNN converted from a trained ReLU network."""

    def __init__(self, layers: list[SpikingLayer]) -> None:
        if not layers:
            raise WorkloadError("SNN needs at least one layer")
        self.layers = layers

    # -- conversion ------------------------------------------------------

    @classmethod
    def from_ann(
        cls,
        net: Sequential,
        calibration_x: np.ndarray,
        percentile: float = 99.5,
    ) -> "SpikingNetwork":
        """Convert a Dense/ReLU network via activation-based scaling.

        Each layer's weights are divided by that layer's ``percentile``
        activation on the calibration set (and multiplied by the
        previous layer's), so a firing rate of 1.0 corresponds to the
        layer's observed maximum activation (Diehl et al., 2015).
        """
        dense_layers = [l for l in net.layers if isinstance(l, Dense)]
        if not dense_layers:
            raise WorkloadError("network has no Dense layers to convert")
        for layer in net.layers:
            if not isinstance(layer, (Dense, ReLU, Flatten)):
                raise WorkloadError(
                    "ANN→SNN conversion supports Dense/ReLU/Flatten "
                    f"stacks, got {type(layer).__name__}"
                )
        # collect per-layer activation scales
        act = np.asarray(calibration_x, dtype=np.float64)
        if act.ndim > 2:
            act = act.reshape(act.shape[0], -1)
        scales = []
        current = act
        for dense in dense_layers:
            pre = current @ dense.weight + dense.bias
            post = np.maximum(pre, 0.0)
            scale = float(np.percentile(post, percentile))
            scales.append(max(scale, 1e-9))
            current = post
        layers = []
        prev_scale = 1.0
        for dense, scale in zip(dense_layers, scales):
            w = dense.weight * (prev_scale / scale)
            b = dense.bias / scale
            layers.append(
                SpikingLayer(
                    weight=w,
                    bias=b,
                    lif=LIFLayer(neurons=w.shape[1]),
                )
            )
            prev_scale = scale
        return cls(layers)

    # -- crossbar deployment ------------------------------------------------

    def program_crossbars(
        self,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Program every layer onto crossbar tiles (FF mat pairs).

        Spike inputs are binary, so only weight quantisation matters;
        large layers are split-merged over multiple pairs exactly as
        the PRIME compiler does.
        """
        for layer in self.layers:
            w_int, fmt = quantize_with_bias(
                layer.weight,
                layer.bias,
                bits=params.effective_weight_bits + 1,
            )
            rows, cols = w_int.shape
            tiles = []
            for r0 in range(0, rows, params.rows):
                row_tiles = []
                for c0 in range(0, cols, params.logical_cols):
                    tile = w_int[
                        r0 : r0 + params.rows,
                        c0 : c0 + params.logical_cols,
                    ]
                    engine = CrossbarMVMEngine(params, rng=rng)
                    engine.program(tile)
                    row_tiles.append(engine)
                tiles.append(row_tiles)
            layer.crossbar = ProgrammedLayer(tiles, fmt)
            # Spikes drive the rows as 0/1 codes: a unit resolution.
            layer.crossbar.in_fmt = DynamicFixedPoint(
                params.effective_input_bits, 0, signed=False
            )

    # -- inference ---------------------------------------------------------

    def run(
        self,
        x: np.ndarray,
        timesteps: int = 64,
        rng: np.random.Generator | None = None,
        backend: str = "digital",
        with_noise: bool = False,
    ) -> SnnRunResult:
        """Rate-coded inference over ``timesteps`` steps.

        ``backend`` is ``"digital"`` (float synapses) or ``"crossbar"``
        (binary spikes through the programmed engines).
        """
        if timesteps < 1:
            raise WorkloadError("timesteps must be >= 1")
        if backend not in ("digital", "crossbar"):
            raise WorkloadError(f"unknown backend {backend!r}")
        if backend == "crossbar" and not all(
            l.programmed for l in self.layers
        ):
            raise WorkloadError(
                "call program_crossbars() before the crossbar backend"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        if x.min() < 0.0 or x.max() > 1.0 + 1e-9:
            raise WorkloadError("SNN inputs must be rates in [0, 1]")
        batch = x.shape[0]
        states = [
            layer.lif.init_state(batch) for layer in self.layers
        ]
        counts = np.zeros(
            (batch, self.layers[-1].weight.shape[1]), dtype=np.int64
        )
        for _ in range(timesteps):
            spikes = (rng.random(x.shape) < x).astype(np.float64)
            for layer, state in zip(self.layers, states):
                current = self._synaptic_current(
                    layer, spikes, backend, with_noise
                )
                spikes = layer.lif.step(state, current)
            counts += spikes.astype(np.int64)
        return SnnRunResult(spike_counts=counts, timesteps=timesteps)

    def accuracy(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        timesteps: int = 64,
        rng: np.random.Generator | None = None,
        backend: str = "digital",
    ) -> float:
        """Classification accuracy of the spiking inference."""
        result = self.run(x, timesteps=timesteps, rng=rng, backend=backend)
        return float(np.mean(result.predict() == np.asarray(labels)))

    def _synaptic_current(
        self,
        layer: SpikingLayer,
        spikes: np.ndarray,
        backend: str,
        with_noise: bool,
    ) -> np.ndarray:
        if backend == "digital":
            return spikes @ layer.weight + layer.bias
        crossbar = layer.crossbar
        if crossbar.output_shift is None:
            # One layer-wide SA window, frozen on the first timestep's
            # spikes; later timesteps reuse it (saturating at the SA
            # ceiling like any fixed hardware reference).
            head = spikes[:32]
            codes = np.concatenate(
                [head, np.ones((len(head), 1))], axis=1
            ).astype(np.int64)
            crossbar.output_shift = crossbar.calibrate_output_shift(
                codes, calibration_samples=len(codes)
            )
        return run_layer(crossbar, spikes, with_noise)
