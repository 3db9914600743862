import numpy as np
import pytest
from conftest import agreement, fd_grad, random_batch, random_net

from ffnet.errors import ConfigError, ShapeError
from ffnet.linalg import make_rng
from ffnet.nn import (
    AdamState,
    DenseLayer,
    MlpNetwork,
    adam_step,
    forward_pass,
    full_backprop_grad,
    init_network,
    layer_local_grad,
)


class TestInitNetwork:
    def test_shapes(self):
        net = init_network([794, 500, 500, 500], make_rng(0))
        assert net.depth == 3
        assert net.layers[0].weights.shape == (794, 500)
        assert net.layers[0].biases.shape == (1, 500)
        assert net.layer_dims == [794, 500, 500, 500]

    def test_same_seed_identical(self):
        a = init_network([20, 10, 5], make_rng(3))
        b = init_network([20, 10, 5], make_rng(3))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_weight_mean_near_zero(self):
        net = init_network([10, 5], make_rng(7))
        assert abs(net.layers[0].weights.mean()) < 0.05

    def test_biases_zero_and_bounds(self):
        net = init_network([30, 20], make_rng(0))
        assert np.all(net.layers[0].biases == 0.0)
        limit = np.sqrt(6.0 / 50)
        assert np.all(np.abs(net.layers[0].weights) <= limit)

    def test_degenerate_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_network([5], make_rng(0))
        with pytest.raises(ConfigError):
            init_network([5, 0, 3], make_rng(0))


class TestForwardTrace:
    def test_zero_weight_net_all_zero(self):
        net = init_network([4, 3, 2], make_rng(0))
        for layer in net.layers:
            layer.weights = np.zeros_like(layer.weights)
        trace = forward_pass(net, np.ones((5, 4)))
        for act in trace.act:
            assert np.all(act == 0.0)

    def test_identity_weights_pass_positive_input_through(self):
        net = MlpNetwork(layers=[DenseLayer(weights=np.eye(3), biases=np.zeros((1, 3)))])
        x = np.array([[0.2, 0.5, 0.9]])
        trace = forward_pass(net, x)
        np.testing.assert_array_equal(trace.act[0], x)

    def test_normed_rows_are_unit(self, rng):
        net = random_net([10, 8, 6], seed=5)
        trace = forward_pass(net, random_batch(rng, 12, 10))
        for normed, act in zip(trace.normed, trace.act):
            live = np.linalg.norm(act, axis=1) > 1e-9
            norms = np.linalg.norm(normed[live], axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_next_layer_consumes_normalized(self, rng):
        net = random_net([6, 5, 4], seed=2)
        batch = random_batch(rng, 3, 6)
        trace = forward_pass(net, batch)
        manual = trace.normed[0] @ net.layers[1].weights + net.layers[1].biases
        np.testing.assert_array_equal(trace.pre[1], manual)

    def test_determinism(self, rng):
        net = random_net([7, 5], seed=9)
        batch = random_batch(rng, 4, 7)
        t1 = forward_pass(net, batch)
        t2 = forward_pass(net, batch)
        np.testing.assert_array_equal(t1.normed[0], t2.normed[0])

    def test_shape_mismatch(self):
        net = random_net([6, 4], seed=0)
        with pytest.raises(ShapeError):
            forward_pass(net, np.ones((2, 5)))


class TestLayerLocalGrad:
    def test_zero_coefficients_give_zero_gradients(self, rng):
        net = random_net([5, 4], seed=1)
        x = random_batch(rng, 3, 5)
        gw, gb = layer_local_grad(net.layers[0], x, np.zeros((3, 4)))
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_dead_relu_blocks_gradient(self):
        net = random_net([2, 1], seed=1)
        net.layers[0].weights = np.array([[1.0], [1.0]])
        net.layers[0].biases = np.array([[-10.0]])  # pre < 0 always
        gw, gb = layer_local_grad(net.layers[0], np.ones((1, 2)), np.ones((1, 1)))
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_matches_finite_differences(self, rng):
        net = random_net([6, 4], seed=3)
        layer = net.layers[0]
        x = random_batch(rng, 5, 6)
        coeffs = rng.standard_normal((5, 4))

        def loss():
            act = np.maximum(x @ layer.weights + layer.biases, 0.0)
            return float(np.sum(coeffs * act))

        gw, gb = layer_local_grad(layer, x, coeffs)
        fw = fd_grad(loss, layer.weights)
        fb = fd_grad(loss, layer.biases)
        assert agreement([gw, gb], [fw, fb]) >= 0.99


class TestFullBackprop:
    def test_depth_one_equals_layer_local(self, rng):
        net = random_net([6, 4], seed=4)
        x = random_batch(rng, 3, 6)
        coeffs = rng.standard_normal((3, 4))
        gw_local, gb_local = layer_local_grad(net.layers[0], x, coeffs)
        [(gw_full, gb_full)] = full_backprop_grad(net, x, coeffs)
        np.testing.assert_array_equal(gw_local, gw_full)
        np.testing.assert_array_equal(gb_local, gb_full)

    def test_zero_output_grad(self, rng):
        net = random_net([6, 5, 4], seed=5)
        x = random_batch(rng, 3, 6)
        grads = full_backprop_grad(net, x, np.zeros((3, 4)))
        for gw, gb in grads:
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_finite_differences(self, rng, normalize):
        net = random_net([12, 8, 6, 4], seed=6)
        x = random_batch(rng, 4, 12)
        out_coeffs = make_rng(17).standard_normal((4, 4))

        def loss():
            trace = forward_pass(net, x, normalize=normalize)
            return float(np.sum(out_coeffs * trace.act[-1]))

        grads = full_backprop_grad(net, x, out_coeffs, normalize=normalize)
        analytic, numeric = [], []
        for i, layer in enumerate(net.layers):
            analytic.extend(grads[i])
            numeric.append(fd_grad(loss, layer.weights))
            numeric.append(fd_grad(loss, layer.biases))
        assert agreement(analytic, numeric) >= 0.99

    def test_final_linear_head_matches_finite_differences(self, rng):
        net = random_net([7, 5, 3], seed=8)
        x = random_batch(rng, 4, 7)
        out_coeffs = make_rng(18).standard_normal((4, 3))

        def loss():
            trace = forward_pass(net, x, normalize=False, final_linear=True)
            return float(np.sum(out_coeffs * trace.act[-1]))

        grads = full_backprop_grad(
            net, x, out_coeffs, normalize=False, final_linear=True
        )
        analytic, numeric = [], []
        for i, layer in enumerate(net.layers):
            analytic.extend(grads[i])
            numeric.append(fd_grad(loss, layer.weights))
            numeric.append(fd_grad(loss, layer.biases))
        assert agreement(analytic, numeric) >= 0.99


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        param = np.array([[1.0, -2.0]])
        state = AdamState.for_param(param)
        out = adam_step(param, np.zeros_like(param), state)
        np.testing.assert_array_equal(out, param)
        assert state.step_count == 1

    def test_first_step_is_signed_learning_rate(self):
        param = np.zeros((2, 2))
        grad = np.array([[0.5, -3.0], [1e-3, 0.0]])
        state = AdamState.for_param(param, learning_rate=0.001)
        out = adam_step(param, grad, state)
        expected = -0.001 * grad / (np.abs(grad) + state.epsilon)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_identical_calls_on_state_copies_agree(self, rng):
        param = rng.standard_normal((3, 3))
        grad = rng.standard_normal((3, 3))
        state = AdamState.for_param(param)
        state.first_moment = rng.standard_normal((3, 3)) * 0.1
        state.second_moment = np.abs(rng.standard_normal((3, 3))) * 0.1
        state.step_count = 5
        out1 = adam_step(param.copy(), grad, state.copy())
        out2 = adam_step(param.copy(), grad, state.copy())
        np.testing.assert_array_equal(out1, out2)

    def test_shape_mismatch(self):
        state = AdamState.for_param(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            adam_step(np.zeros((2, 2)), np.zeros((3, 2)), state)
