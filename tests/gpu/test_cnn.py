"""Unit tests for the CNN workload (the genuine numerical path)."""

import numpy as np
import pytest

from repro.gpu.cnn import (
    AvgPool2D,
    Conv2D,
    Dense,
    _conv2d_im2col,
    _conv2d_reference,
    accuracy,
    build_ece408_network,
    generate_dataset,
    generate_model_weights,
    infer,
)


class TestConvImplementations:
    def test_reference_equals_im2col(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4, 12, 12)).astype(np.float32)
        w = rng.normal(size=(6, 4, 5, 5)).astype(np.float32)
        b = rng.normal(size=6).astype(np.float32)
        ref = _conv2d_reference(x, w, b)
        fast = _conv2d_im2col(x, w, b)
        assert ref.shape == fast.shape == (3, 6, 8, 8)
        np.testing.assert_allclose(ref, fast, rtol=1e-4, atol=1e-4)

    def test_known_value(self):
        """A hand-checkable 1x1-channel case: 2x2 ones kernel = box sum."""
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.ones((1, 1, 2, 2), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = _conv2d_im2col(x, w, b)
        expected = np.array([[10, 14, 18], [26, 30, 34], [42, 46, 50]],
                            dtype=np.float32)
        np.testing.assert_allclose(out[0, 0], expected)

    def test_bias_applied(self):
        x = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w = np.zeros((2, 1, 3, 3), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out = _conv2d_reference(x, w, b)
        assert out[0, 0, 0, 0] == 1.5
        assert out[0, 1, 0, 0] == -2.0


class TestLayers:
    def test_avgpool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = AvgPool2D("p", size=2).forward(x, {}, "im2col")
        expected = np.array([[2.5, 4.5], [10.5, 12.5]], dtype=np.float32)
        np.testing.assert_allclose(out[0, 0], expected)

    def test_conv_flop_count(self):
        conv = Conv2D("c", in_channels=2, out_channels=3, kernel=3)
        # 2 * batch * cout * oh * ow * cin * k * k
        assert conv.flops(5, 5, batch=4) == 2 * 4 * 3 * 3 * 3 * 2 * 9

    def test_dense_flops(self):
        d = Dense("d", in_features=10, out_features=4)
        assert d.flops(0, 0, batch=2) == 2 * 2 * 10 * 4

    def test_network_shape_tracking(self):
        net = build_ece408_network()
        costs = net.layer_costs(batch=1)
        names = [c["name"] for c in costs]
        assert names[0] == "conv1" and "fc2" in names
        assert net.total_flops(10) == 10 * net.total_flops(1)


class TestDatasetAndWeights:
    def test_weights_deterministic(self):
        w1 = generate_model_weights()
        w2 = generate_model_weights()
        for key in w1:
            np.testing.assert_array_equal(w1[key], w2[key])

    def test_weights_cover_all_layers(self):
        weights = generate_model_weights()
        assert {"conv1.weight", "conv1.bias", "conv2.weight", "fc1.weight",
                "fc2.bias"} <= set(weights)

    def test_dataset_labels_from_reference_network(self):
        """A correct implementation must score 100% by construction."""
        images, labels = generate_dataset(16)
        weights = generate_model_weights()
        for impl in ("reference", "im2col"):
            logits = infer(images, weights, impl=impl)
            assert accuracy(logits, labels) == 1.0

    def test_wrong_weights_lose_accuracy(self):
        images, labels = generate_dataset(32)
        rng = np.random.default_rng(999)
        bad = {name: rng.permutation(w.ravel()).reshape(w.shape)
               for name, w in generate_model_weights().items()}
        acc = accuracy(infer(images, bad, impl="im2col"), labels)
        assert acc < 0.8

    def test_dataset_shapes(self):
        images, labels = generate_dataset(5)
        assert images.shape == (5, 1, 28, 28)
        assert labels.shape == (5,)
        assert images.dtype == np.float32


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(10, dtype=np.float32)[:4] * 5
        assert accuracy(logits, np.arange(4)) == 1.0

    def test_half(self):
        logits = np.zeros((2, 10), dtype=np.float32)
        logits[0, 3] = 1
        logits[1, 0] = 1
        assert accuracy(logits, np.array([3, 7])) == 0.5

    def test_empty(self):
        assert accuracy(np.zeros((0, 10)), np.zeros(0)) == 0.0
