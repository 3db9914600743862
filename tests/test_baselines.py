import re

import numpy as np
import pytest
from conftest import agreement, fd_grad, random_batch, random_net, traced_peak

from ffnet.analysis import evaluate_subsets
from ffnet.baselines import (
    classic_logits,
    classic_test_error,
    softmax_cross_entropy,
    train_classic,
    train_pairwise,
)
from ffnet.data import Dataset, draw_eval_sample, make_linked_batches
from ffnet.errors import ShapeError
from ffnet.ff import FfConfig, ff_loss_and_coeffs
from ffnet.linalg import make_rng, row_sumsq
from ffnet.nn import forward_pass, full_backprop_grad, init_network
from ffnet.synth import synthetic_pair


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        logits = np.zeros((6, 10))
        labels = np.arange(6) % 10
        loss, _ = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(loss, np.log(10.0), rtol=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        labels = np.array([2, 5])
        logits = np.full((2, 10), -50.0)
        logits[0, 2] = 50.0
        logits[1, 5] = 50.0
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss < 1e-12

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((30, 10)) * 5
        labels = rng.integers(0, 10, size=30)
        _, d_logits = softmax_cross_entropy(logits, labels)
        # d_logits = (softmax - onehot)/m, so each row of m*d sums to zero,
        # and recovering softmax rows must sum to exactly one.
        from ffnet.data import one_hot

        softmax = d_logits * 30 + one_hot(labels, 10)
        np.testing.assert_allclose(softmax.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 7))
        labels = rng.integers(0, 7, size=5)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, d_logits = softmax_cross_entropy(logits, labels)
        numeric = fd_grad(loss, logits)
        assert agreement([d_logits], [numeric], tol=1e-6) >= 0.99

    @pytest.mark.parametrize(
        "logits_shape, labels_shape", [((10,), (10,)), ((4, 10), (3,)), ((4, 10), (4, 1))]
    )
    def test_incompatible_shapes_rejected(self, logits_shape, labels_shape):
        message = f"logits {logits_shape} incompatible with labels {labels_shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            softmax_cross_entropy(np.zeros(logits_shape), np.zeros(labels_shape, dtype=np.int64))


class TestPairwiseGradients:
    def test_full_gradient_matches_finite_differences(self, rng):
        """Last-layer goodness loss, chain-ruled through normalization."""
        net = random_net([20, 8, 6, 4], seed=31)
        inputs = random_batch(rng, 6, 20)
        polarity = np.where(rng.uniform(size=6) < 0.5, 1.0, -1.0)
        theta = 1.5

        def loss():
            trace = forward_pass(net, inputs)
            g = row_sumsq(trace.act[-1])
            return float(np.mean(np.logaddexp(0.0, -polarity * (g - theta))))

        trace = forward_pass(net, inputs)
        _, output_grad = ff_loss_and_coeffs(trace, net.depth - 1, 0.0, theta, polarity)
        grads = full_backprop_grad(net, trace, output_grad)
        analytic, numeric = [], []
        for i, layer in enumerate(net.layers):
            analytic.extend(grads[i])
            numeric.append(fd_grad(loss, layer.weights))
            numeric.append(fd_grad(loss, layer.biases))
        assert agreement(analytic, numeric) >= 0.99

    @staticmethod
    def batches(batch_size=10):
        train_ds, _ = synthetic_pair(23, 5, d=6, seed=12)
        return list(make_linked_batches(train_ds, make_rng(4), batch_size))

    @staticmethod
    def pairwise_grads(net, batch):
        """Factored gradients of the last layer's goodness loss, and its
        output gradient."""
        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        _, output_grad = ff_loss_and_coeffs(trace, net.depth - 1, 0.0, 1.0, batch.polarity)
        grads = full_backprop_grad(net, trace, output_grad)
        return grads, output_grad

    @pytest.mark.parametrize(
        ("batch_size", "sizes"), [(10, [10, 10, 3]), (23, [23])], ids=["ragged", "whole"]
    )
    def test_factored_matches_linked_matrix(self, batch_size, sizes):
        """Label-factored gradients of every layer against the linked matrix,
        normalization on, with and without a ragged last batch."""
        net = random_net([16, 7, 6, 5], seed=34)
        batches = self.batches(batch_size)
        assert [b.images.shape[0] for b in batches] == sizes
        for batch in batches:
            got, output_grad = self.pairwise_grads(net, batch)
            inputs = batch.linked_inputs()
            want = full_backprop_grad(net, forward_pass(net, inputs), output_grad)
            for (gw, gb), (ww, wb) in zip(got, want):
                assert gw.shape == ww.shape and gb.shape == wb.shape
                np.testing.assert_allclose(gw, ww, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(gb, wb, rtol=1e-12, atol=0.0)

    def test_factored_first_layer_matches_finite_differences(self):
        """Layer 1's pixel rows, label rows and bias, chain-ruled through
        the later layers and normalization."""
        net = random_net([16, 7, 5], seed=35)
        layer = net.layers[0]
        batch = self.batches()[-1]  # 3 samples, 6 rows

        def loss():
            trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
            return ff_loss_and_coeffs(trace, net.depth - 1, 0.0, 1.0, batch.polarity)[0]

        grad_w, grad_b = self.pairwise_grads(net, batch)[0][0]
        numeric_w = fd_grad(loss, layer.weights)
        numeric_b = fd_grad(loss, layer.biases)
        assert np.abs(grad_w[6:]).max() > 1e-4  # the label rows carry gradient
        assert agreement([grad_w[:6]], [numeric_w[:6]]) >= 0.99
        assert agreement([grad_w[6:]], [numeric_w[6:]]) >= 0.99
        assert agreement([grad_b], [numeric_b]) >= 0.99

    def test_factored_shape_checks(self):
        net = random_net([16, 7, 5], seed=36)
        batch = self.batches()[0]  # 10 samples, 20 rows
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 7"):
            forward_pass(net, batch.images[:7], linked_labels=batch.linked_labels)

    def test_depth_one_pairwise_equals_plain_ff_updates(self):
        """With a single layer the two methods are the same algorithm, and
        both run it label-factored, so their updates agree bit for bit."""
        train_ds, _ = synthetic_pair(100, 30, d=12, seed=4)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=25, seed=6)

        net_a = init_network([22, 9], make_rng(5))
        net_a, _ = train_pairwise(net_a, train_ds, cfg)

        from ffnet.ff import train

        net_b = init_network([22, 9], make_rng(5))
        net_b, _ = train(net_b, train_ds, cfg)

        assert net_b.layers[0].weights.tobytes() == net_a.layers[0].weights.tobytes()
        assert net_b.layers[0].biases.tobytes() == net_a.layers[0].biases.tobytes()


class TestClassicGradients:
    def test_matches_finite_differences(self, rng):
        net = random_net([20, 8, 6, 4], seed=32)  # 4-wide head
        inputs = random_batch(rng, 5, 20)
        labels = rng.integers(0, 4, size=5)

        def loss():
            trace = forward_pass(net, inputs, classic=True)
            return softmax_cross_entropy(trace.act[-1], labels)[0]

        trace = forward_pass(net, inputs, classic=True)
        _, d_logits = softmax_cross_entropy(trace.act[-1], labels)
        grads = full_backprop_grad(net, trace, d_logits)
        analytic, numeric = [], []
        for i, layer in enumerate(net.layers):
            analytic.extend(grads[i])
            numeric.append(fd_grad(loss, layer.weights))
            numeric.append(fd_grad(loss, layer.biases))
        assert agreement(analytic, numeric) >= 0.99


class TestClassicScores:
    """classic_logits, read in blocks of ff.SCORE_CHUNK rows, against one
    forward pass over all rows."""

    @pytest.mark.parametrize("chunk", [4, 5, 16], ids=["ragged", "even", "one_block"])
    def test_ragged_chunks(self, rng, monkeypatch, chunk):
        import ffnet.ff as ff_module

        monkeypatch.setattr(ff_module, "SCORE_CHUNK", chunk)
        net = random_net([6, 7, 5, 10], seed=33)
        images = rng.uniform(size=(10, 6))  # chunks of 4, 4 and 2; 5 and 5; or one
        got = classic_logits(net, images)
        want = forward_pass(net, images, classic=True).act[-1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(np.argmax(got, axis=1), np.argmax(want, axis=1))

    def test_shuffled_dataset_rows_match_their_array(self, rng):
        """A shuffled evaluation sample that spans three chunks scores its rows
        as the float64 array of the same rows does, byte for byte."""
        ds = Dataset(rng.integers(0, 256, size=(607, 6), dtype=np.uint8),
                     rng.integers(0, 10, size=607), "synthetic", "test")
        net = random_net([6, 7, 5, 10], seed=34)
        idx, sample, _ = draw_eval_sample(ds, 600, seed=34)
        got = classic_logits(net, sample)
        want = classic_logits(net, ds.rows(idx))
        assert got.shape == (600, 10) and got.tobytes() == want.tobytes()

    def test_a_block_holds_about_one_hidden_layer_at_a_time(self):
        """Scoring reads only the head's logits, so its pass over a 256-row
        block of 784-500-500-500-10 peaks at two 256x500 arrays (a layer's
        input and its activities), not at every hidden layer's activities."""
        net = init_network([784, 500, 500, 500, 10], make_rng(0))
        images = make_rng(1).uniform(size=(256, 784))
        peak = traced_peak(lambda: classic_logits(net, images))
        # 128 KB covers the logits, the goodness vectors and einsum's buffer;
        # a third array would take 1,000 KB.
        assert peak <= 2 * 256 * 500 * 8 + 128 * 1024


class TestTraining:
    def test_pairwise_loss_decreases_and_fixed_seed_reproduces(self):
        train_ds, test_ds = synthetic_pair(600, 200, d=32, seed=9)
        cfg = FfConfig(theta=4.0, epochs=10, batch_size=50, seed=8)
        runs = []
        for _ in range(2):
            net = init_network([42, 24, 16, 12], make_rng(7))
            net, history = train_pairwise(net, train_ds, cfg)
            runs.append((net, history))
        net, history = runs[0]
        losses = [row["loss"] for row in history]
        assert losses[-1] < losses[0]
        last = {net.depth - 1}
        err = evaluate_subsets(net, test_ds, [last]).error_of(last)
        assert err < 0.5  # far better than the 0.9 chance level
        for la, lb in zip(runs[0][0].layers, runs[1][0].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_pairwise_batch_computes_each_goodness_once(self, monkeypatch):
        """Its forward pass records each layer's goodness as it computes the
        layer, and the loss reads the last layer's from the trace: a batch
        computes one goodness column per layer, none of them twice."""
        import ffnet.nn as nn_mod

        columns = []

        def counted(act):
            columns.append(act.shape)
            return row_sumsq(act)

        monkeypatch.setattr(nn_mod, "row_sumsq", counted)
        train_ds, _ = synthetic_pair(10, 5, d=6, seed=12)
        net = init_network([16, 7, 6, 5], make_rng(3))
        train_pairwise(net, train_ds, FfConfig(epochs=1, batch_size=10))
        assert columns == [(20, 7), (20, 6), (20, 5)]

    def test_classic_learns_synthetic_data(self):
        train_ds, test_ds = synthetic_pair(600, 200, d=32, seed=10)
        net = init_network([32, 24, 16, 12, 10], make_rng(3))
        net, history = train_classic(
            net, train_ds, FfConfig(epochs=12, batch_size=50, seed=4)
        )
        assert history[-1]["loss"] < history[0]["loss"]
        assert classic_test_error(net, test_ds) < 0.3
