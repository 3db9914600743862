import tracemalloc

import numpy as np
import pytest
from conftest import agreement, fd_grad, random_batch, random_net, traced_peak

from ffnet import nn
from ffnet.errors import ConfigError, ShapeError
from ffnet.ff import activity_coeffs
from ffnet.linalg import make_rng, row_sumsq
from ffnet.nn import (
    AdamState,
    DenseLayer,
    MlpNetwork,
    adam_step,
    backprop_updates,
    forward_from_pre,
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
        manual = np.maximum(
            trace.normed[0] @ net.layers[1].weights + net.layers[1].biases, 0.0
        )
        assert trace.act[1].tobytes() == manual.tobytes()

    def test_determinism(self, rng):
        net = random_net([7, 5], seed=9)
        batch = random_batch(rng, 4, 7)
        t1 = forward_pass(net, batch)
        t2 = forward_pass(net, batch)
        np.testing.assert_array_equal(t1.act[0], t2.act[0])

    def test_shape_mismatch(self):
        net = random_net([6, 4], seed=0)
        with pytest.raises(ShapeError):
            forward_pass(net, np.ones((2, 5)))

    @pytest.mark.parametrize("upto", [1, 2, 3])
    def test_from_first_pre_matches_forward_pass_bitwise(self, rng, upto):
        net = random_net([6, 5, 4, 3], seed=4)
        batch = random_batch(rng, 5, 6)
        first = net.layers[0]
        got = forward_from_pre(net, batch @ first.weights + first.biases, upto=upto)
        want = forward_pass(net, batch, upto=upto)
        assert got.inputs is None and got.depth == want.depth == upto
        for name in ("act", "normed"):
            for a, b in zip(getattr(got, name), getattr(want, name)):
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("upto", [1, 2, 3])
    @pytest.mark.parametrize("classic", [False, True], ids=["goodness", "classic"])
    def test_caller_arrays_are_not_written(self, rng, upto, classic):
        """Neither entry point writes the caller's batch or first pre-activation."""
        net = random_net([6, 5, 4, 3], seed=4)
        batch = random_batch(rng, 5, 6)
        first = net.layers[0]
        first_pre = batch @ first.weights + first.biases - 0.3
        assert np.any(first_pre < 0.0)  # an in-place ReLU would change it
        before = batch.tobytes(), first_pre.tobytes()
        forward_pass(net, batch, upto, classic)
        forward_from_pre(net, first_pre, upto, classic)
        assert (batch.tobytes(), first_pre.tobytes()) == before

    def test_linked_batch_is_not_written(self, rng):
        net = random_net([16, 7, 5], seed=31)
        images = random_batch(rng, 4, 6)
        before = images.tobytes()
        forward_pass(net, images, linked_labels=np.array([0, 3, 9, 2, 5, 5, 1, 0]))
        assert images.tobytes() == before

    @pytest.mark.parametrize("classic", [False, True], ids=["goodness", "classic"])
    @pytest.mark.parametrize("upto", [1, 2, 3])
    def test_last_computed_layer_is_not_normalized(self, rng, upto, classic):
        net = random_net([6, 5, 4, 3], seed=4)
        trace = forward_pass(net, random_batch(rng, 5, 6), upto, classic)
        assert len(trace.act) == upto and len(trace.normed) == upto - 1
        if classic:
            assert all(n is a for n, a in zip(trace.normed, trace.act))

    def test_trace_holds_three_activities_and_two_normalized(self):
        """A 400-row linked batch over 794-500-500-500 leaves a trace of five
        400x500 arrays (8.0 MB): no pre-activations and no normalized copy of
        the last layer, which would make nine (14.4 MB)."""
        net = init_network([794, 500, 500, 500], make_rng(0))
        rng = make_rng(1)
        images = rng.uniform(0.0, 1.0, size=(200, 784))
        labels = rng.integers(0, 10, 400)
        tracemalloc.start()
        try:
            trace = forward_pass(net, images, linked_labels=labels)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.depth == 3
        # 64 KB covers the trace's Python objects, not a sixth array.
        assert held <= 5 * 400 * 500 * 8 + 64 * 1024

    @pytest.mark.parametrize("classic", [False, True], ids=["goodness", "classic"])
    @pytest.mark.parametrize("keep", [(), [0], [1], [2], [0, 2], None])
    def test_keep_holds_only_the_kept_layers_arrays(self, rng, keep, classic):
        """A pass holds the activities and the normalized input of the layers
        it keeps, the same bits as a keep-all pass, and None for the others;
        it records every layer's goodness, bit for bit ``row_sumsq`` of the
        keep-all pass's activities."""
        net = random_net([6, 5, 4, 3], seed=4)
        batch = random_batch(rng, 5, 6)
        want = forward_pass(net, batch, classic=classic)
        got = forward_pass(net, batch, classic=classic, keep=keep)
        kept = range(3) if keep is None else keep
        assert got.depth == 3 and len(got.act) == 3 and len(got.normed) == 2
        for i in range(3):
            assert (got.act[i] is None) == (i not in kept)
            if i in kept:
                assert got.act[i].tobytes() == want.act[i].tobytes()
                assert got.layer_input(i).tobytes() == want.layer_input(i).tobytes()
            else:
                assert i == 0 or got.normed[i - 1] is None
            assert got.goodness[i].tobytes() == row_sumsq(want.act[i]).tobytes()
            assert want.goodness[i].tobytes() == got.goodness[i].tobytes()

    def test_a_pass_keeping_no_layer_holds_about_one_layer_at_a_time(self):
        """Scoring's pass over a 256-row block of 794-500-500-500 peaks at two
        256x500 arrays (one layer's activities and normalized rows, or its
        input and the next layer's activities), and leaves only goodness."""
        net = init_network([794, 500, 500, 500], make_rng(0))
        pixel_pre = make_rng(1).uniform(-1.0, 1.0, size=(256, 500))
        offset = net.layers[0].biases + 0.1
        tracemalloc.start()
        try:
            trace = forward_from_pre(net, pixel_pre + offset, keep=())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.act == [None] * 3 and trace.normed == [None] * 2
        block = 256 * 500 * 8
        # 128 KB covers the goodness vectors, the per-row norms and einsum's
        # buffer; a third array would take 1,000 KB.
        assert held <= 128 * 1024
        assert peak <= 2 * block + 128 * 1024

    def test_from_first_pre_rejects_wrong_width(self):
        net = random_net([6, 5, 4], seed=4)
        with pytest.raises(ShapeError, match="layer 1 has 5 units"):
            forward_from_pre(net, np.ones((2, 4)))

    @pytest.mark.parametrize("upto", [0, 3])
    def test_upto_outside_the_depth_rejected(self, upto):
        net = random_net([6, 5, 4], seed=4)
        with pytest.raises(ShapeError, match=rf"^upto={upto} outside 1\.\.2$"):
            forward_from_pre(net, np.ones((2, 5)), upto=upto)


class TestLayerLocalGrad:
    def test_zero_coefficients_give_zero_gradients(self, rng):
        net = random_net([5, 4], seed=1)
        x = random_batch(rng, 3, 5)
        gw, gb = layer_local_grad(net.layers[0], x, np.zeros((3, 4)))
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_dead_relu_blocks_gradient(self):
        """A goodness loss's pre-activation gradient (``activity_coeffs``) is
        zero on a unit whose ReLU is off, so the unit gets no gradient."""
        net = random_net([2, 1], seed=1)
        net.layers[0].weights = np.array([[1.0], [1.0]])
        net.layers[0].biases = np.array([[-10.0]])  # pre < 0 always
        x = np.ones((1, 2))
        act = forward_pass(net, x).act[0]
        gw, gb = layer_local_grad(net.layers[0], x, activity_coeffs(act, np.ones(1)))
        assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_matches_finite_differences(self, rng):
        net = random_net([6, 4], seed=3)
        layer = net.layers[0]
        x = random_batch(rng, 5, 6)
        coeffs = rng.standard_normal((5, 4))

        def loss():
            act = np.maximum(x @ layer.weights + layer.biases, 0.0)
            return float(np.sum(coeffs * act))

        d_pre = coeffs * (x @ layer.weights + layer.biases > 0.0)
        gw, gb = layer_local_grad(layer, x, d_pre)
        fw = fd_grad(loss, layer.weights)
        fb = fd_grad(loss, layer.biases)
        assert agreement([gw, gb], [fw, fb]) >= 0.99

    @pytest.mark.parametrize("dead_unit", [False, True])
    def test_activity_coeffs_are_the_pre_activation_gradient_bitwise(self, rng, dead_unit):
        """``activity_coeffs`` of the forward's activities is already zero
        wherever the recomputed pre-activation is not positive, so handing it
        over unmasked gives the masked gradient bit for bit."""
        net = random_net([9, 7, 6], seed=23)
        if dead_unit:
            net.layers[1].biases[0, 2] = -50.0  # unit 3 of layer 2 never fires
        x = random_batch(rng, 11, 9)
        trace = forward_pass(net, x)
        for i, layer in enumerate(net.layers):
            inp = trace.layer_input(i)
            coeffs = activity_coeffs(trace.act[i], rng.standard_normal(11))
            gw, gb = layer_local_grad(layer, inp, coeffs)
            d_pre = coeffs * (inp @ layer.weights + layer.biases > 0.0)
            assert d_pre.tobytes() == coeffs.tobytes()
            assert gw.tobytes() == (inp.T @ d_pre).tobytes()
            assert gb.tobytes() == d_pre.sum(axis=0, keepdims=True).tobytes()
            if dead_unit and i == 1:
                assert np.all(gw[:, 2] == 0.0) and gb[0, 2] == 0.0

    def test_wrong_gradient_shape_rejected(self, rng):
        net = random_net([5, 4], seed=1)
        x = random_batch(rng, 3, 5)
        d_pre = np.ones((3, 4))
        for bad in (d_pre[:2], d_pre.T, d_pre[:, :3]):
            with pytest.raises(ShapeError, match="pre-activation gradient shape"):
                layer_local_grad(net.layers[0], x, bad)

    @pytest.mark.parametrize("factored", [False, True])
    def test_takes_a_read_only_gradient(self, rng, factored):
        """``layer_local_grad`` and ``backprop_updates`` never write the
        gradient they are handed: a read-only one gives the bits of a
        writable copy."""
        net = random_net([16 if factored else 6, 5, 4], seed=3)
        labels = np.array([0, 3, 9, 2, 5, 5]) if factored else None
        images = random_batch(rng, 3, 6)
        rows = 6 if factored else 3
        trace = forward_pass(net, images, linked_labels=labels)

        def local(d_pre):
            return layer_local_grad(net.layers[0], images, d_pre, labels)

        def backprop(d_pre):
            return [g for _, gw, gb in backprop_updates(net, trace, d_pre) for g in (gw, gb)]

        for d_pre, grads in ((rng.standard_normal((rows, 5)), local),
                             (rng.standard_normal((rows, 4)), backprop)):
            writable = d_pre.copy()
            d_pre.setflags(write=False)
            got, want = grads(d_pre), grads(writable)
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
            assert writable.tobytes() == d_pre.tobytes()


class TestFullBackprop:
    def test_rejects_a_trace_that_drops_a_layer(self, rng):
        net = random_net([6, 5, 4], seed=5)
        trace = forward_pass(net, random_batch(rng, 3, 6), keep=[1])
        with pytest.raises(ShapeError, match="keeps every layer"):
            full_backprop_grad(net, trace, np.zeros((3, 4)))

    @pytest.mark.parametrize(
        "upto, grad_shape, message",
        [
            (1, (3, 5), r"^trace depth 1 != network depth 2$"),
            (2, (3, 5), r"^output_grad shape \(3, 5\) does not match final activities \(3, 4\)$"),
        ],
    )
    def test_rejects_a_trace_or_output_grad_that_does_not_fit(
        self, rng, upto, grad_shape, message
    ):
        net = random_net([6, 5, 4], seed=5)
        trace = forward_pass(net, random_batch(rng, 3, 6), upto)
        with pytest.raises(ShapeError, match=message):
            full_backprop_grad(net, trace, np.zeros(grad_shape))

    def test_depth_one_equals_layer_local(self, rng):
        net = random_net([6, 4], seed=4)
        x = random_batch(rng, 3, 6)
        coeffs = rng.standard_normal((3, 4))
        trace = forward_pass(net, x)
        gw_local, gb_local = layer_local_grad(net.layers[0], x, coeffs)
        [(gw_full, gb_full)] = full_backprop_grad(net, trace, coeffs)
        np.testing.assert_array_equal(gw_local, gw_full)
        np.testing.assert_array_equal(gb_local, gb_full)

    def test_zero_output_grad(self, rng):
        net = random_net([6, 5, 4], seed=5)
        x = random_batch(rng, 3, 6)
        grads = full_backprop_grad(net, forward_pass(net, x), np.zeros((3, 4)))
        for gw, gb in grads:
            assert np.all(gw == 0.0) and np.all(gb == 0.0)

    def test_matches_finite_differences(self, rng):
        net = random_net([12, 8, 6, 4], seed=6)
        x = random_batch(rng, 4, 12)
        out_coeffs = make_rng(17).standard_normal((4, 4))

        def loss():
            trace = forward_pass(net, x)
            return float(np.sum(out_coeffs * trace.act[-1]))

        trace = forward_pass(net, x)
        grads = full_backprop_grad(net, trace, out_coeffs * (trace.act[-1] > 0.0))
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
            trace = forward_pass(net, x, classic=True)
            return float(np.sum(out_coeffs * trace.act[-1]))

        trace = forward_pass(net, x, classic=True)
        grads = full_backprop_grad(net, trace, out_coeffs)
        analytic, numeric = [], []
        for i, layer in enumerate(net.layers):
            analytic.extend(grads[i])
            numeric.append(fd_grad(loss, layer.weights))
            numeric.append(fd_grad(loss, layer.biases))
        assert agreement(analytic, numeric) >= 0.99

    @pytest.mark.parametrize(
        ("factored", "classic"), [(True, False), (False, True)], ids=["pairwise", "classic"]
    )
    def test_streamed_updates_survive_an_in_place_step_of_each_layer(
        self, rng, factored, classic
    ):
        """Adam steps each yielded layer before the next update is drawn; every
        update is still byte for byte that of the untouched net, layers come
        last first, and the caller's output_grad is never written."""
        net = random_net([16, 6, 5, 4], seed=21)
        labels = np.array([0, 4, 9, 2, 2, 7]) if factored else None
        images = random_batch(rng, 3, 6 if factored else 16)
        modes = dict(classic=classic, linked_labels=labels)
        output_grad = rng.standard_normal((6 if factored else 3, 4))
        given = output_grad.copy()
        untouched = net.copy()
        expected = full_backprop_grad(
            untouched, forward_pass(untouched, images, **modes), output_grad
        )
        order = []
        trace = forward_pass(net, images, **modes)
        for i, grad_w, grad_b in backprop_updates(net, trace, output_grad):
            order.append(i)
            assert grad_w.tobytes() == expected[i][0].tobytes()
            assert grad_b.tobytes() == expected[i][1].tobytes()
            lay = net.layers[i]
            adam_step(lay.weights, grad_w, AdamState.for_param(lay.weights))
            adam_step(lay.biases, grad_b, AdamState.for_param(lay.biases))
        assert order == [2, 1, 0]
        assert output_grad.tobytes() == given.tobytes()
        assert not np.array_equal(net.layers[0].weights, untouched.layers[0].weights)

    def test_trace_carries_the_linked_labels(self, rng):
        net = random_net([16, 4, 3], seed=11)
        images = random_batch(rng, 3, 6)
        labels = np.array([0, 4, 9, 2, 2, 7])
        assert forward_pass(net, images, linked_labels=labels).linked_labels is labels
        assert forward_pass(net, random_batch(rng, 3, 16)).linked_labels is None


def adam_reference(param, m, v, grad, t, st):
    """The allocating Adam formula: (param, first moment, second moment)."""
    m = nn.ADAM_BETA1 * m + (1.0 - nn.ADAM_BETA1) * grad
    v = nn.ADAM_BETA2 * v + (1.0 - nn.ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - nn.ADAM_BETA1**t)
    v_hat = v / (1.0 - nn.ADAM_BETA2**t)
    return param - st.learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON), m, v


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
        expected = -0.001 * grad / (np.abs(grad) + nn.ADAM_EPSILON)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_identical_calls_on_state_copies_agree(self, rng):
        param = rng.standard_normal((3, 3))
        grad = rng.standard_normal((3, 3))
        first = rng.standard_normal((3, 3)) * 0.1
        second = np.abs(rng.standard_normal((3, 3))) * 0.1
        out1 = adam_step(param.copy(), grad, AdamState(first.copy(), second.copy(), step_count=5))
        out2 = adam_step(param.copy(), grad, AdamState(first.copy(), second.copy(), step_count=5))
        np.testing.assert_array_equal(out1, out2)

    def test_shape_mismatch(self):
        state = AdamState.for_param(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            adam_step(np.zeros((2, 2)), np.zeros((3, 2)), state)

    @pytest.mark.parametrize("bad", ["grad", "first_moment", "second_moment"])
    def test_shape_mismatch_leaves_state_unchanged(self, rng, bad):
        param = rng.standard_normal((3, 4))
        shapes = {"grad": (3, 4), "first_moment": (3, 4), "second_moment": (3, 4)}
        shapes[bad] = (1, 4)
        grad = rng.standard_normal(shapes["grad"])
        state = AdamState(
            rng.standard_normal(shapes["first_moment"]),
            np.abs(rng.standard_normal(shapes["second_moment"])),
            step_count=4,
        )

        def snapshot():
            arrays = (param, state.first_moment, state.second_moment)
            return [a.tobytes() for a in arrays], state.step_count

        before = snapshot()
        with pytest.raises(ShapeError, match="adam shapes disagree"):
            adam_step(param, grad, state)
        assert snapshot() == before

    def test_in_place_matches_allocating_form_bitwise(self):
        """25 steps equal the allocating formula bit for bit, on the params and
        both moments, with gradients from 1e-8 to 10 in magnitude."""
        rng = make_rng(31)
        param = rng.standard_normal((6, 5))
        state = AdamState.for_param(param, learning_rate=0.01)
        first, second = state.first_moment, state.second_moment
        ref_param, ref_m, ref_v = param.copy(), np.zeros_like(param), np.zeros_like(param)
        for t in range(1, 26):
            magnitude = 10.0 ** rng.uniform(-8.0, 1.0, size=param.shape)
            grad = magnitude * rng.choice([-1.0, 1.0], size=param.shape)
            out = adam_step(param, grad, state)
            ref_param, ref_m, ref_v = adam_reference(
                ref_param, ref_m, ref_v, grad, t, state
            )
            assert out is param
            assert state.first_moment is first and state.second_moment is second
            assert param.tobytes() == ref_param.tobytes()
            assert first.tobytes() == ref_m.tobytes()
            assert second.tobytes() == ref_v.tobytes()
        assert state.step_count == 25

    @pytest.mark.parametrize(
        "shape, columns",
        [
            ((7, 5), slice(None)),        # 2-row blocks, ragged last block
            ((1, 23), slice(None)),       # one row wider than a block
            ((9, 12), slice(None, None, 2)),  # non-contiguous view, 6 columns
        ],
    )
    def test_blocks_match_allocating_form_bitwise(self, monkeypatch, shape, columns):
        """Blocked updates equal the allocating formula bit for bit, write
        through a non-contiguous view, and keep the moments' identity."""
        monkeypatch.setattr(nn, "ADAM_BLOCK", 10)
        rng = make_rng(32)
        big = rng.standard_normal(shape)
        param = big[:, columns]
        untouched = np.delete(big, columns, axis=1)
        state = AdamState.for_param(param, learning_rate=0.01)
        first, second = state.first_moment, state.second_moment
        ref_param, ref_m, ref_v = param.copy(), np.zeros_like(param), np.zeros_like(param)
        for t in range(1, 6):
            grad = rng.standard_normal(param.shape)
            out = adam_step(param, grad, state)
            ref_param, ref_m, ref_v = adam_reference(ref_param, ref_m, ref_v, grad, t, state)
            assert out is param
            assert state.first_moment is first and state.second_moment is second
            assert big[:, columns].tobytes() == ref_param.tobytes()
            assert first.tobytes() == ref_m.tobytes()
            assert second.tobytes() == ref_v.tobytes()
        assert np.delete(big, columns, axis=1).tobytes() == untouched.tobytes()

    def test_step_allocates_no_param_sized_temporary(self):
        """One step on a 794x500 param (3.2 MB) peaks well under one
        param-sized array of traced memory."""
        rng = make_rng(33)
        param = rng.standard_normal((794, 500))
        grad = rng.standard_normal(param.shape)
        state = AdamState.for_param(param)
        adam_step(param, grad, state)
        assert traced_peak(lambda: adam_step(param, grad, state)) < 1_000_000
