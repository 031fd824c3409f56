"""Tests for the NN layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    Sigmoid,
    Softmax,
)


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


class TestDense:
    def test_forward_shape_and_value(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((5, 4))
        out = layer.forward(x)
        assert out.shape == (5, 3)
        assert np.allclose(out, x @ layer.weight + layer.bias)

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        out = layer.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_weight_gradient(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        grad_out = rng.standard_normal((4, 2))
        layer.forward(x, training=True)
        layer.backward(grad_out)

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        assert np.allclose(
            layer.d_weight, numerical_grad(loss, layer.weight), atol=1e-5
        )
        assert np.allclose(
            layer.d_bias, numerical_grad(loss, layer.bias), atol=1e-5
        )

    def test_backward_requires_training_forward(self, rng):
        layer = Dense(2, 2, rng=rng)
        with pytest.raises(WorkloadError):
            layer.backward(np.zeros((1, 2)))

    def test_output_shape_validation(self, rng):
        layer = Dense(4, 3, rng=rng)
        assert layer.output_shape((4,)) == (3,)
        with pytest.raises(WorkloadError):
            layer.output_shape((5,))

    def test_init_validation(self):
        with pytest.raises(WorkloadError):
            Dense(0, 3)
        with pytest.raises(WorkloadError):
            Dense(3, 3, init="mystery")


class TestConv2D:
    def test_forward_matches_direct_convolution(self, rng):
        layer = Conv2D(2, 3, kernel=3, rng=rng)
        x = rng.standard_normal((1, 5, 5, 2))
        out = layer.forward(x)
        assert out.shape == (1, 3, 3, 3)
        # check one output pixel by hand
        w = layer.weight.reshape(3, 3, 2, 3)
        patch = x[0, 1:4, 2:5, :]
        expected = np.einsum("ijc,ijco->o", patch, w) + layer.bias
        assert np.allclose(out[0, 1, 2], expected)

    def test_same_padding_preserves_size(self, rng):
        layer = Conv2D(1, 2, kernel=3, rng=rng, pad=1)
        x = rng.standard_normal((2, 8, 8, 1))
        assert layer.forward(x).shape == (2, 8, 8, 2)

    def test_input_gradient(self, rng):
        layer = Conv2D(1, 2, kernel=2, rng=rng)
        x = rng.standard_normal((1, 4, 4, 1))
        out = layer.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_padded_input_gradient(self, rng):
        layer = Conv2D(1, 1, kernel=3, rng=rng, pad=1)
        x = rng.standard_normal((1, 4, 4, 1))
        out = layer.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = layer.backward(grad_out)
        assert grad_in.shape == x.shape

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_weight_gradient(self, rng):
        layer = Conv2D(1, 2, kernel=2, rng=rng)
        x = rng.standard_normal((2, 3, 3, 1))
        out = layer.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        layer.backward(grad_out)

        def loss():
            return float(np.sum(layer.forward(x) * grad_out))

        assert np.allclose(
            layer.d_weight, numerical_grad(loss, layer.weight), atol=1e-5
        )

    def test_channel_mismatch(self, rng):
        layer = Conv2D(2, 3, kernel=3, rng=rng)
        with pytest.raises(WorkloadError):
            layer.forward(np.zeros((1, 5, 5, 1)))

    def test_weight_matrix_is_crossbar_shaped(self, rng):
        # PRIME programs the (K*K*Cin, Cout) matrix directly.
        layer = Conv2D(3, 8, kernel=5, rng=rng)
        assert layer.weight.shape == (75, 8)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = MaxPool2D(2).forward(x)
        assert out[0, :, :, 0].tolist() == [[5.0, 7.0], [13.0, 15.0]]

    def test_max_pool_gradient_routes_to_max(self, rng):
        pool = MaxPool2D(2)
        x = rng.standard_normal((1, 4, 4, 1))
        out = pool.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = pool.backward(grad_out)

        def loss():
            return float(np.sum(pool.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_mean_pool_values(self):
        x = np.ones((1, 4, 4, 2))
        out = MeanPool2D(2).forward(x)
        assert np.allclose(out, 1.0)
        assert out.shape == (1, 2, 2, 2)

    def test_mean_pool_gradient(self, rng):
        pool = MeanPool2D(2)
        x = rng.standard_normal((1, 4, 4, 1))
        out = pool.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = pool.backward(grad_out)

        def loss():
            return float(np.sum(pool.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_max_pool_equals_reshape_reduce(self, rng, size):
        """The strided-view max equals the 6-D reshape-and-reduce it
        replaced, bit for bit, on ties, negatives and -inf (also for a
        non-contiguous input); the training mask still marks every
        tied maximum."""

        def reshape_reduce(a):
            b, h, w, c = a.shape
            tiles = a.reshape(b, h // size, size, w // size, size, c)
            return tiles.max(axis=(2, 4))

        x = rng.integers(-3, 2, (3, 6 * size, 4 * size, 5)).astype(float)
        x[rng.random(x.shape) < 0.2] = -np.inf
        x[0, :size, :size, 0] = -np.inf
        x[1] = rng.standard_normal(x.shape[1:]) - 10.0
        pool = MaxPool2D(size)
        out = pool.forward(x, training=True)
        reference = reshape_reduce(x)
        assert out.shape == reference.shape
        assert out.tobytes() == reference.tobytes()
        expanded = np.repeat(np.repeat(reference, size, 1), size, 2)
        np.testing.assert_array_equal(pool._mask, x == expanded)
        flipped = x[:, :, ::-1]
        assert (
            pool.forward(flipped).tobytes()
            == reshape_reduce(np.ascontiguousarray(flipped)).tobytes()
        )

    def test_indivisible_spatial_dims(self):
        with pytest.raises(WorkloadError):
            MaxPool2D(3).forward(np.zeros((1, 4, 4, 1)))
        with pytest.raises(WorkloadError):
            MaxPool2D(2).forward(np.zeros((2, 4, 5, 3)))
        with pytest.raises(WorkloadError):
            MaxPool2D(2).forward(np.zeros((2, 5, 4, 3)))

    def test_output_shapes(self):
        assert MaxPool2D(2).output_shape((8, 8, 3)) == (4, 4, 3)
        assert MeanPool2D(4).output_shape((8, 8, 3)) == (2, 2, 3)


class TestActivations:
    def test_sigmoid_range(self, rng):
        out = Sigmoid().forward(rng.standard_normal(100) * 10)
        assert np.all((out > 0) & (out < 1))

    def test_sigmoid_gradient(self, rng):
        act = Sigmoid()
        x = rng.standard_normal((3, 4))
        out = act.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = act.backward(grad_out)

        def loss():
            return float(np.sum(act.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_relu_gradient(self, rng):
        act = ReLU()
        x = rng.standard_normal((3, 4)) + 0.1  # avoid the kink
        out = act.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = act.backward(grad_out)

        def loss():
            return float(np.sum(act.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_softmax_normalises(self, rng):
        out = Softmax().forward(rng.standard_normal((5, 7)))
        assert np.allclose(out.sum(axis=-1), 1.0)
        assert np.all(out > 0)

    def test_softmax_gradient(self, rng):
        act = Softmax()
        x = rng.standard_normal((2, 4))
        out = act.forward(x, training=True)
        grad_out = rng.standard_normal(out.shape)
        grad_in = act.backward(grad_out)

        def loss():
            return float(np.sum(act.forward(x) * grad_out))

        assert np.allclose(grad_in, numerical_grad(loss, x), atol=1e-5)

    def test_softmax_shift_invariant(self, rng):
        x = rng.standard_normal((2, 4))
        a = Softmax().forward(x)
        b = Softmax().forward(x + 1000.0)
        assert np.allclose(a, b)


class TestFlatten:
    def test_forward_backward(self, rng):
        layer = Flatten()
        x = rng.standard_normal((2, 3, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 60)
        grad = layer.backward(out)
        assert grad.shape == x.shape

    def test_output_shape(self):
        assert Flatten().output_shape((3, 4, 5)) == (60,)
