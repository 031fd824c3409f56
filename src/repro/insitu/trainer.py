"""Mixed-signal in-situ SGD on crossbar engines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExecutionError
from repro.crossbar.engine import CrossbarMVMEngine
from repro.crossbar.layer import ProgrammedLayer
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.losses import CrossEntropyLoss
from repro.nn.network import Sequential
from repro.params.crossbar import CrossbarParams, DEFAULT_CROSSBAR
from repro.perf.plan import run_layer
from repro.precision.dynamic_fixed_point import (
    DynamicFixedPoint,
    quantize_with_bias,
)


@dataclass
class InSituTrainingResult:
    """History and hardware cost of one in-situ training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    #: Cells reprogrammed per epoch (write pulses on the arrays).
    cell_writes: list[int] = field(default_factory=list)
    write_energy_j: float = 0.0

    @property
    def total_cell_writes(self) -> int:
        """Programming events across the whole run."""
        return sum(self.cell_writes)


class _InSituLayer:
    """One Dense layer living on a crossbar pair during training."""

    def __init__(
        self,
        dense: Dense,
        activation,
        params: CrossbarParams,
        rng: np.random.Generator | None,
    ) -> None:
        rows = dense.weight.shape[0] + 1  # bias row
        cols = dense.weight.shape[1]
        if rows > params.rows or cols > params.logical_cols:
            raise ExecutionError(
                f"in-situ layer {dense.weight.shape} exceeds one pair "
                f"({params.rows}×{params.logical_cols}); tile it "
                "off-line instead"
            )
        self.dense = dense
        self.activation = activation
        self.params = params
        self.engine = CrossbarMVMEngine(params, rng=rng)
        #: The engine as a one-tile programmed layer, rebuilt by every
        #: :meth:`program` that moves a level: its weight format, the
        #: per-batch input format and the per-cell-state SA window.
        self.programmed: ProgrammedLayer | None = None
        self.levels: np.ndarray | None = None
        # caches for the digital backward pass
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None
        self.total_writes = 0
        self.program(full=True)

    # -- weight <-> cell synchronisation ---------------------------------

    def program(self, full: bool = False) -> int:
        """Push shadow weights into the cells; returns cells written.

        Only levels that actually changed are rewritten (write-verify
        skips stable cells) unless ``full`` forces a whole-array
        program.
        """
        levels, fmt = quantize_with_bias(
            self.dense.weight,
            self.dense.bias,
            bits=self.params.effective_weight_bits + 1,
        )
        if full or self.levels is None:
            changed = int(levels.size)
        else:
            changed = int(np.count_nonzero(levels != self.levels))
        if changed:
            self.engine.program(levels)
            # The cell state moved: a fresh layer over the engine drops
            # the stale SA window and the memoised step's count stacks.
            self.programmed = ProgrammedLayer([[self.engine]], fmt)
        self.levels = levels
        self.programmed.w_fmt = fmt
        self.total_writes += changed
        return changed

    # -- mixed-signal forward / digital backward ---------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        programmed = self.programmed
        augmented = np.concatenate(
            [x, np.ones((x.shape[0], 1))], axis=1
        )
        programmed.in_fmt = DynamicFixedPoint.for_data(
            augmented, bits=self.params.effective_input_bits, signed=False
        )
        if programmed.output_shift is None:
            # Calibrate once per cell state: the SA window only moves
            # when program() actually rewrites levels.
            codes = programmed.in_fmt.quantize_int(
                np.clip(augmented[:64], 0.0, None)
            )
            programmed.output_shift = (
                programmed.calibrate_output_shift(
                    codes, calibration_samples=len(codes)
                )
            )
        pre = run_layer(programmed, x, with_noise=True)
        self._x = x
        self._pre = pre
        return self.activation.forward(pre) if self.activation else pre

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None or self._pre is None:
            raise ExecutionError("backward before forward")
        if isinstance(self.activation, ReLU):
            grad_pre = grad_out * (self._pre > 0)
        elif isinstance(self.activation, Sigmoid):
            s = 1.0 / (1.0 + np.exp(-self._pre))
            grad_pre = grad_out * s * (1.0 - s)
        else:
            grad_pre = grad_out
        self.d_weight = self._x.T @ grad_pre
        self.d_bias = grad_pre.sum(axis=0)
        return grad_pre @ self.dense.weight.T


class InSituTrainer:
    """Trains a Dense/activation stack directly on crossbar engines."""

    def __init__(
        self,
        network: Sequential,
        params: CrossbarParams = DEFAULT_CROSSBAR,
        rng: np.random.Generator | None = None,
        reprogram_interval: int = 4,
    ) -> None:
        if reprogram_interval < 1:
            raise ExecutionError("reprogram_interval must be >= 1")
        self.params = params
        self.reprogram_interval = reprogram_interval
        self.layers = self._wrap(network, rng)
        self.loss = CrossEntropyLoss()

    def _wrap(self, network, rng) -> list[_InSituLayer]:
        layers: list[_InSituLayer] = []
        pending: Dense | None = None
        for layer in network.layers:
            if isinstance(layer, Dense):
                if pending is not None:
                    layers.append(
                        _InSituLayer(pending, None, self.params, rng)
                    )
                pending = layer
            elif isinstance(layer, (ReLU, Sigmoid)):
                if pending is None:
                    raise ExecutionError(
                        "activation without a preceding Dense layer"
                    )
                layers.append(
                    _InSituLayer(pending, layer, self.params, rng)
                )
                pending = None
            else:
                raise ExecutionError(
                    "in-situ training supports Dense + ReLU/Sigmoid "
                    f"stacks only, got {type(layer).__name__}"
                )
        if pending is not None:
            layers.append(_InSituLayer(pending, None, self.params, rng))
        if not layers:
            raise ExecutionError("no trainable layers found")
        return layers

    # -- public API -----------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Analog forward pass through the current cell state."""
        act = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            act = layer.forward(act)
        return act

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy of the analog forward pass."""
        out = self.forward(x)
        return float(np.mean(np.argmax(out, axis=1) == labels))

    def train(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        epochs: int = 3,
        batch_size: int = 32,
        learning_rate: float = 0.1,
        rng: np.random.Generator | None = None,
        val_x: np.ndarray | None = None,
        val_labels: np.ndarray | None = None,
    ) -> InSituTrainingResult:
        """Mixed-signal SGD with level-change-only reprogramming."""
        rng = rng if rng is not None else np.random.default_rng(0)
        result = InSituTrainingResult()
        e_write = self.params.device.e_write
        n = x.shape[0]
        step = 0
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            batches = 0
            epoch_writes = 0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = x[idx], labels[idx]
                logits = self.forward(xb)
                epoch_loss += self.loss.forward(logits, yb)
                batches += 1
                grad = self.loss.backward(logits, yb)
                for layer in reversed(self.layers):
                    grad = layer.backward(grad)
                # digital shadow-weight update
                for layer in self.layers:
                    layer.dense.weight -= learning_rate * layer.d_weight
                    layer.dense.bias -= learning_rate * layer.d_bias
                step += 1
                if step % self.reprogram_interval == 0:
                    for layer in self.layers:
                        epoch_writes += layer.program()
            for layer in self.layers:  # end-of-epoch sync
                epoch_writes += layer.program()
            result.losses.append(epoch_loss / max(batches, 1))
            result.cell_writes.append(epoch_writes)
            # each changed level costs pos+neg, hi+lo cell writes
            result.write_energy_j += epoch_writes * 4 * e_write
            if val_x is not None and val_labels is not None:
                result.accuracies.append(
                    self.accuracy(val_x, val_labels)
                )
            else:
                result.accuracies.append(self.accuracy(x, labels))
        return result

    def endurance_headroom(self) -> float:
        """Training runs of this size the devices could endure.

        Uses the worst layer's average writes-per-cell so far; with
        ReRAM's ~1e12 endurance the headroom is astronomically large —
        the §II-A argument for why wear is a non-issue vs PCM.
        """
        device = self.params.device
        worst = 0.0
        for layer in self.layers:
            per_cell = layer.total_writes / layer.levels.size
            worst = max(worst, per_cell)
        if worst <= 0:
            return float("inf")
        return device.endurance / worst
