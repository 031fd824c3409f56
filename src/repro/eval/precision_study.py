"""The Figure 6 precision study.

The paper evaluates handwritten-digit classification accuracy under
dynamic-fixed-point quantisation of the inputs and synaptic weights of
every layer, sweeping both precisions from 1 to 8 bits, and finds that
3-bit inputs with 3-bit weights already reach ~99% accuracy — NN
inference is robust to low precision, which justifies PRIME's 3-bit
drivers / 4-bit cells plus the composing scheme.

This module reproduces the study on the synthetic digit dataset (the
offline MNIST substitute): a LeNet-style CNN (the CNN-1 topology) is
trained in float, then evaluated with per-layer quantised inputs and
weights across the precision grid.

Performance shape: the quantised forward pass is *purely functional*
(explicit weight/bias arguments via ``Layer.forward_with``; nothing is
mutated and restored), weights are quantised once per ``weight_bits``
value and shared across the whole input-bits sweep, and the trained
reference network is served from the :mod:`repro.perf.cache` artifact
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import WorkloadError
from repro.eval.reference import train_reference_network
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential
from repro.precision.dynamic_fixed_point import DynamicFixedPoint


@dataclass
class PrecisionStudyResult:
    """Accuracy over the (input bits × weight bits) grid."""

    float_accuracy: float
    #: (input_bits, weight_bits) -> accuracy
    grid: dict[tuple[int, int], float] = field(default_factory=dict)

    def accuracy(self, input_bits: int, weight_bits: int) -> float:
        """Accuracy at one grid point."""
        return self.grid[(input_bits, weight_bits)]

    def saturation_point(self, tolerance: float = 0.01) -> tuple[int, int]:
        """Smallest symmetric (k, k) precision within ``tolerance`` of
        the float accuracy."""
        for k in range(1, 9):
            if (k, k) in self.grid and self.grid[(k, k)] >= (
                self.float_accuracy - tolerance
            ):
                return (k, k)
        raise WorkloadError("no saturating precision found in the grid")


def quantize_network_weights(
    net: Sequential, weight_bits: int
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Per-layer quantised ``(weight, bias)`` for every weight layer.

    Entries align with ``net.layers``; non-weight layers map to
    ``None``.  Quantising once here and reusing the arrays across an
    input-bits sweep replaces the old per-grid-point quantise /
    mutate / restore cycle.
    """
    if weight_bits < 2:
        raise WorkloadError("weight_bits must be >= 2 (sign bit)")
    quantized: list[tuple[np.ndarray, np.ndarray] | None] = []
    for layer in net.layers:
        if isinstance(layer, (Dense, Conv2D)):
            w_fmt = DynamicFixedPoint.for_data(
                layer.weight, bits=weight_bits
            )
            b_fmt = DynamicFixedPoint.for_data(
                layer.bias, bits=weight_bits
            )
            quantized.append(
                (w_fmt.quantize(layer.weight), b_fmt.quantize(layer.bias))
            )
        else:
            quantized.append(None)
    return quantized


def quantized_forward(
    net: Sequential,
    x: np.ndarray,
    input_bits: int,
    weight_bits: int,
    quantized: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
) -> np.ndarray:
    """Forward pass with per-layer dynamic-fixed-point quantisation.

    Before every weight layer the (non-negative) activations are
    re-quantised to ``input_bits`` unsigned dynamic fixed point, and
    that layer's weights and biases are quantised to ``weight_bits``
    signed dynamic fixed point — the paper's evaluation protocol.

    The pass is purely functional: quantised parameters are computed
    (or taken from ``quantized``, the output of
    :func:`quantize_network_weights`, when sweeping many input
    precisions at one weight precision) and applied via
    ``Layer.forward_with`` without ever touching the layer's own
    arrays, so a single network object is safe to share across threads.
    """
    if input_bits < 1 or weight_bits < 2:
        raise WorkloadError(
            "input_bits must be >= 1 and weight_bits >= 2 (sign bit)"
        )
    if quantized is None:
        quantized = quantize_network_weights(net, weight_bits)
    act = np.asarray(x, dtype=np.float64)
    for layer, qparams in zip(net.layers, quantized):
        if qparams is not None:
            in_fmt = DynamicFixedPoint.for_data(
                act, bits=input_bits, signed=False
            )
            act = in_fmt.quantize(np.clip(act, 0.0, None))
            act = layer.forward_with(act, qparams[0], qparams[1])
        else:
            act = layer.forward(act)
    return act


def quantized_accuracy(
    net: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    input_bits: int,
    weight_bits: int,
    quantized: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
) -> float:
    """Classification accuracy of the quantised forward pass."""
    logits = quantized_forward(
        net, x, input_bits, weight_bits, quantized=quantized
    )
    return float(np.mean(np.argmax(logits, axis=-1) == y))


def _precision_row(
    net: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    weight_bits: int,
    input_bit_range: tuple[int, ...],
) -> dict[tuple[int, int], float]:
    """One grid row: every input precision at one weight precision."""
    quantized = quantize_network_weights(net, weight_bits)
    return {
        (ib, weight_bits): quantized_accuracy(
            net, x, y, ib, weight_bits, quantized=quantized
        )
        for ib in input_bit_range
    }


def precision_study(
    input_bit_range: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8),
    weight_bit_range: tuple[int, ...] = (2, 3, 4, 6, 8),
    workload: str = "CNN-1",
    n_train: int = 5000,
    n_test: int = 800,
    epochs: int = 10,
    seed: int = 7,
    reference: tuple[Sequential, np.ndarray, np.ndarray] | None = None,
    use_cache: bool = True,
) -> PrecisionStudyResult:
    """Regenerate the Figure 6 grid.

    ``reference`` supplies a pre-trained ``(net, x_test, y_test)``
    triple (e.g. a shared benchmark fixture); otherwise the reference
    network comes from the artifact cache (``use_cache=True``) or a
    fresh training run.  The grid runs one row per weight precision,
    each quantising the weights once for its whole input-bits sweep.
    """
    if reference is not None:
        net, x_test, y_test = reference
    elif use_cache:
        from repro.perf.cache import reference_network

        net, x_test, y_test = reference_network(
            workload, n_train=n_train, n_test=n_test, epochs=epochs,
            seed=seed,
        )
    else:
        net, x_test, y_test = train_reference_network(
            workload, n_train=n_train, n_test=n_test, epochs=epochs,
            seed=seed,
        )
    result = PrecisionStudyResult(
        float_accuracy=net.accuracy(x_test, y_test)
    )
    with telemetry.span(
        "eval.precision_study",
        workload=workload,
        points=len(input_bit_range) * len(weight_bit_range),
    ):
        for wb in weight_bit_range:
            result.grid.update(
                _precision_row(net, x_test, y_test, wb, input_bit_range)
            )
    return result
