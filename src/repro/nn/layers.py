"""Neural-network layers with forward and backward passes.

Data layout conventions:

* dense activations: ``(batch, features)``
* image activations: ``(batch, height, width, channels)``

Each layer caches what its backward pass needs during ``forward`` and
exposes ``params()``/``grads()`` pairs for the SGD optimiser.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.nn.initializers import he_normal, xavier_uniform


class Layer:
    """Base layer: forward, backward, and parameter access."""

    trainable = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Given dL/d(output), cache parameter grads, return dL/d(input)."""
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        """Mutable parameter arrays (same objects every call)."""
        return []

    def grads(self) -> list[np.ndarray]:
        """Gradients matching :meth:`params` order."""
        return []

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (without batch) this layer produces from ``input_shape``."""
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    trainable = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        init: str = "xavier",
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise WorkloadError("dense dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        if init == "xavier":
            self.weight = xavier_uniform(
                (in_features, out_features), in_features, out_features, rng
            )
        elif init == "he":
            self.weight = he_normal(
                (in_features, out_features), in_features, rng
            )
        else:
            raise WorkloadError(f"unknown init {init!r}")
        self.bias = np.zeros(out_features)
        self._x: np.ndarray | None = None
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x = x
        return x @ self.weight + self.bias

    def forward_with(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        """Forward pass with explicit parameters.

        Pure: the layer's own weights and backward caches are
        untouched, so quantised/perturbed evaluations can share one
        layer object across threads and processes.
        """
        return x @ weight + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise WorkloadError("backward before forward(training=True)")
        self.d_weight[...] = self._x.T @ grad
        self.d_bias[...] = grad.sum(axis=0)
        return grad @ self.weight.T

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.d_weight, self.d_bias]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape != (self.weight.shape[0],):
            raise WorkloadError(
                f"dense expects {(self.weight.shape[0],)}, got {input_shape}"
            )
        return (self.weight.shape[1],)


def _im2col(
    x: np.ndarray, kernel: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """(B, H, W, C) → (B, OH, OW, K*K*C) patch matrix."""
    b, h, w, c = x.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    shape = (b, oh, ow, kernel, kernel, c)
    strides = (
        x.strides[0],
        x.strides[1] * stride,
        x.strides[2] * stride,
        x.strides[1],
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(b, oh, ow, kernel * kernel * c), oh, ow


class Conv2D(Layer):
    """Valid-padding 2-D convolution (cross-correlation), stride 1.

    Weights have shape ``(K*K*Cin, Cout)`` — exactly the matrix PRIME
    programs into crossbars for convolution layers (§III-E).
    """

    trainable = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator | None = None,
        pad: int = 0,
    ) -> None:
        if kernel < 1 or in_channels < 1 or out_channels < 1:
            raise WorkloadError("conv dimensions must be positive")
        if pad < 0:
            raise WorkloadError("padding must be non-negative")
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = kernel * kernel * in_channels
        self.kernel = kernel
        self.pad = pad
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = he_normal((fan_in, out_channels), fan_in, rng)
        self.bias = np.zeros(out_channels)
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)
        self._cols: np.ndarray | None = None
        self._in_shape: tuple[int, ...] | None = None

    def _columns(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Validate, pad, and im2col ``x``; returns (cols, padded shape)."""
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise WorkloadError(
                f"conv expects (B, H, W, {self.in_channels}), got {x.shape}"
            )
        if self.pad:
            p = self.pad
            x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
        cols, _, _ = _im2col(x, self.kernel, stride=1)
        return cols, x.shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        cols, padded_shape = self._columns(x)
        out = cols @ self.weight + self.bias
        if training:
            self._cols = cols
            self._in_shape = padded_shape
        return out

    def forward_with(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray
    ) -> np.ndarray:
        """Forward pass with explicit parameters (pure, no caching)."""
        cols, _ = self._columns(x)
        return cols @ weight + bias

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._in_shape is None:
            raise WorkloadError("backward before forward(training=True)")
        b, oh, ow, _ = grad.shape
        flat_grad = grad.reshape(-1, self.out_channels)
        flat_cols = self._cols.reshape(-1, self.weight.shape[0])
        self.d_weight[...] = flat_cols.T @ flat_grad
        self.d_bias[...] = flat_grad.sum(axis=0)
        # dL/dx: scatter the column gradients back onto the image.
        d_cols = (flat_grad @ self.weight.T).reshape(
            b, oh, ow, self.kernel, self.kernel, self.in_channels
        )
        dx = np.zeros(self._in_shape)
        for i in range(self.kernel):
            for j in range(self.kernel):
                dx[:, i : i + oh, j : j + ow, :] += d_cols[:, :, :, i, j, :]
        if self.pad:
            p = self.pad
            dx = dx[:, p:-p, p:-p, :]
        return dx

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.d_weight, self.d_bias]

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        if c != self.in_channels:
            raise WorkloadError(
                f"conv expects {self.in_channels} channels, got {c}"
            )
        return (
            h + 2 * self.pad - self.kernel + 1,
            w + 2 * self.pad - self.kernel + 1,
            self.out_channels,
        )


class MaxPool2D(Layer):
    """Non-overlapping max pooling (window = stride)."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise WorkloadError("pool size must be positive")
        self.size = size
        self._mask: np.ndarray | None = None
        self._in_shape: tuple[int, ...] | None = None

    def _check(self, x: np.ndarray) -> None:
        _, h, w, _ = x.shape
        if h % self.size or w % self.size:
            raise WorkloadError(
                f"pool size {self.size} does not divide spatial dims "
                f"{(h, w)}"
            )

    def _tile(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        b, h, w, c = x.shape
        s = self.size
        return x.reshape(b, h // s, s, w // s, s, c)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # Element-wise max of the s*s strided window views: exact, and
        # cheaper than reducing two axes of a 6-D reshape.
        self._check(x)
        s = self.size
        out = x[:, ::s, ::s].copy()
        for i in range(s):
            for j in range(s):
                if i or j:
                    np.maximum(out, x[:, i::s, j::s], out=out)
        if training:
            expanded = np.repeat(
                np.repeat(out, self.size, axis=1), self.size, axis=2
            )
            self._mask = x == expanded
            self._in_shape = x.shape
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None or self._in_shape is None:
            raise WorkloadError("backward before forward(training=True)")
        expanded = np.repeat(
            np.repeat(grad, self.size, axis=1), self.size, axis=2
        )
        # Split gradient across ties so the pass stays exact on plateaus.
        tiles = self._tile(self._mask.astype(np.float64))
        counts = tiles.sum(axis=(2, 4))
        counts = np.repeat(
            np.repeat(counts, self.size, axis=1), self.size, axis=2
        )
        return expanded * self._mask / np.maximum(counts, 1.0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        if h % self.size or w % self.size:
            raise WorkloadError(
                f"pool size {self.size} does not divide {(h, w)}"
            )
        return (h // self.size, w // self.size, c)


class MeanPool2D(Layer):
    """Non-overlapping mean pooling — implementable as a crossbar dot
    product with weights 1/n (§III-E)."""

    def __init__(self, size: int = 2) -> None:
        if size < 1:
            raise WorkloadError("pool size must be positive")
        self.size = size
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        b, h, w, c = x.shape
        s = self.size
        if h % s or w % s:
            raise WorkloadError(
                f"pool size {s} does not divide spatial dims {(h, w)}"
            )
        if training:
            self._in_shape = x.shape
        return x.reshape(b, h // s, s, w // s, s, c).mean(axis=(2, 4))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise WorkloadError("backward before forward(training=True)")
        expanded = np.repeat(
            np.repeat(grad, self.size, axis=1), self.size, axis=2
        )
        return expanded / (self.size * self.size)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        h, w, c = input_shape
        if h % self.size or w % self.size:
            raise WorkloadError(
                f"pool size {self.size} does not divide {(h, w)}"
            )
        return (h // self.size, w // self.size, c)


class Flatten(Layer):
    """Collapse spatial dimensions to a feature vector."""

    def __init__(self) -> None:
        self._in_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise WorkloadError("backward before forward(training=True)")
        return grad.reshape(self._in_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        size = 1
        for d in input_shape:
            size *= d
        return (size,)


class Sigmoid(Layer):
    """Logistic activation — PRIME's analog sigmoid unit."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y = 1.0 / (1.0 + np.exp(-x))
        if training:
            self._y = y
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise WorkloadError("backward before forward(training=True)")
        return grad * self._y * (1.0 - self._y)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class ReLU(Layer):
    """Rectifier — PRIME's sign-bit ReLU unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise WorkloadError("backward before forward(training=True)")
        return grad * self._mask

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Softmax(Layer):
    """Softmax over the last axis (inference-time classifier head).

    Training uses the fused softmax+cross-entropy in
    :mod:`repro.nn.losses`; this layer's backward is the full Jacobian
    product for completeness.
    """

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=-1, keepdims=True)
        if training:
            self._y = y
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise WorkloadError("backward before forward(training=True)")
        dot = (grad * self._y).sum(axis=-1, keepdims=True)
        return self._y * (grad - dot)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape
