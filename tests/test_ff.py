import numpy as np
import pytest
from conftest import agreement, fd_grad, random_batch, random_net, trace_from_activities

from ffnet.data import link_inputs, make_linked_batches
from ffnet.errors import ConfigError, EstimationError, ShapeError
from ffnet.ff import (
    FfConfig,
    compute_gamma,
    entropy_loss_and_coeffs,
    ff_loss_and_coeffs,
    goodness,
    goodness_table,
    infer,
    label_goodness_scores,
    positive_prob,
    predict,
    train,
)
from ffnet.linalg import l2_row_normalize, make_rng, relu
from ffnet.nn import forward_pass, init_network, layer_local_grad
from ffnet.synth import synthetic_pair


class TestGoodness:
    def test_three_four_gives_twenty_five(self):
        trace = trace_from_activities(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(goodness(trace, 0), [25.0])

    def test_zero_activities(self):
        trace = trace_from_activities(np.zeros((4, 6)))
        np.testing.assert_array_equal(goodness(trace, 0), np.zeros(4))

    def test_matches_explicit_sum_of_squares(self, rng):
        act = rng.standard_normal((10, 8))
        trace = trace_from_activities(act)
        manual = np.array([sum(v * v for v in row) for row in act])
        np.testing.assert_allclose(goodness(trace, 0), manual, atol=1e-12)

    def test_table_is_nonnegative_for_real_traces(self, rng):
        net = random_net([9, 7, 5], seed=3)
        trace = forward_pass(net, random_batch(rng, 6, 9))
        table = goodness_table(trace)
        assert table.shape == (6, 2)
        assert np.all(table >= 0.0)


class TestPositiveProb:
    def test_half_at_threshold(self):
        assert positive_prob(6.0, gamma=4.0, theta=10.0) == 0.5
        assert positive_prob(10.0, gamma=0.0, theta=10.0) == 0.5

    def test_log_three_gives_three_quarters(self):
        p = positive_prob(np.log(3.0), gamma=0.0, theta=0.0)
        np.testing.assert_allclose(p, 0.75, rtol=1e-12)

    def test_no_underflow_at_minus_fifty(self):
        p = positive_prob(-50.0, 0.0, 0.0)
        assert p > 0.0
        np.testing.assert_allclose(float(p), np.exp(-50.0), rtol=1e-10)

    def test_strictly_inside_unit_interval(self):
        for g in (-1e6, -800.0, 0.0, 800.0, 1e6):
            p = float(positive_prob(g, 0.0, 0.0))
            assert 0.0 < p < 1.0

    def test_theta_shift_is_bitwise_exact(self, rng):
        g = rng.uniform(0.0, 30.0, size=50)
        gamma = rng.uniform(0.0, 20.0, size=50)
        theta = 7.3
        shifted = positive_prob(g, np.zeros(50), theta - gamma)
        np.testing.assert_array_equal(positive_prob(g, gamma, theta), shifted)

    def test_strictly_increasing_in_goodness(self):
        g = np.linspace(-30.0, 30.0, 5000)
        p = positive_prob(g, 0.0, 0.0)
        assert np.all(np.diff(p) > 0.0)


class TestComputeGamma:
    @staticmethod
    def _table():
        return np.array([[2.0, 5.0, 7.0]])

    def test_all_other_layers(self):
        np.testing.assert_array_equal(
            compute_gamma(self._table(), 1, "all_other_layers"), [9.0]
        )

    def test_predecessors_of_first_layer(self):
        np.testing.assert_array_equal(
            compute_gamma(self._table(), 0, "predecessors_only"), [0.0]
        )

    def test_predecessors_of_last_layer(self):
        np.testing.assert_array_equal(
            compute_gamma(self._table(), 2, "predecessors_only"), [7.0]
        )

    def test_none_mode(self):
        np.testing.assert_array_equal(compute_gamma(self._table(), 0, "none"), [0.0])


class TestFfLoss:
    def test_saturated_positive_loss_goes_to_zero(self):
        act = np.array([[10.0, 10.0]])  # goodness 200 >> theta
        trace = trace_from_activities(act)
        loss, _ = ff_loss_and_coeffs(trace, 0, 0.0, 5.0, np.array([1.0]))
        assert loss < 1e-10

    def test_loss_is_ln2_at_threshold(self):
        act = np.array([[2.0, 1.0]])  # goodness 5
        trace = trace_from_activities(act)
        loss, _ = ff_loss_and_coeffs(trace, 0, 0.0, 5.0, np.array([1.0]))
        np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)

    def test_coeffs_match_finite_differences(self, rng):
        m, width = 6, 5
        act = rng.uniform(0.1, 1.5, size=(m, width))
        gamma = rng.uniform(0.0, 3.0, size=m)
        polarity = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
        theta = 2.0

        def loss():
            return ff_loss_and_coeffs(
                trace_from_activities(act), 0, gamma, theta, polarity
            )[0]

        _, coeffs = ff_loss_and_coeffs(
            trace_from_activities(act), 0, gamma, theta, polarity
        )
        numeric = fd_grad(loss, act)
        assert agreement([coeffs], [numeric], tol=1e-6) >= 0.99


class TestEntropyLoss:
    def test_constant_h_gives_zero(self):
        act = np.ones((4, 3))
        trace = trace_from_activities(act)
        objective, coeffs = entropy_loss_and_coeffs(
            trace, 0, 0.0, np.ones(4)
        )
        assert abs(objective) < 1e-10
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-12)

    def test_two_point_closed_form(self):
        # activities chosen so h = [1, e]
        act = np.array([[1.0, 0.0], [np.sqrt(np.e), 0.0]])
        trace = trace_from_activities(act)
        objective, _ = entropy_loss_and_coeffs(trace, 0, 0.0, np.ones(2))
        hbar = (1.0 + np.e) / 2.0
        expected = 0.5 * (1.0 * np.log(1.0 / hbar) + np.e * np.log(np.e / hbar))
        np.testing.assert_allclose(objective, expected, rtol=1e-9)

    def test_coeffs_match_finite_differences(self, rng):
        m, width = 8, 4
        act = rng.uniform(0.2, 1.5, size=(m, width))
        gamma = rng.uniform(0.0, 2.0, size=m)
        polarity = np.concatenate([np.ones(4), -np.ones(4)])

        def objective():
            return entropy_loss_and_coeffs(
                trace_from_activities(act), 0, gamma, polarity
            )[0]

        _, coeffs = entropy_loss_and_coeffs(
            trace_from_activities(act), 0, gamma, polarity
        )
        numeric = fd_grad(objective, act)
        assert agreement([coeffs], [numeric], tol=1e-6) >= 0.99

    def test_single_sample_polarity_group_rejected(self):
        act = np.ones((3, 2))
        trace = trace_from_activities(act)
        with pytest.raises(EstimationError):
            entropy_loss_and_coeffs(
                trace, 0, 0.0, np.array([1.0, 1.0, -1.0])
            )


class TestStopGradient:
    def test_gamma_equals_theta_shift_exactly(self, rng):
        net = random_net([9, 6, 5], seed=11)
        batch = random_batch(rng, 7, 9)
        trace = forward_pass(net, batch)
        polarity = np.where(rng.uniform(size=7) < 0.5, 1.0, -1.0)
        gamma = rng.uniform(0.0, 10.0, size=7)
        theta = 4.0

        loss_a, coeffs_a = ff_loss_and_coeffs(trace, 1, gamma, theta, polarity)
        loss_b, coeffs_b = ff_loss_and_coeffs(
            trace, 1, np.zeros(7), theta - gamma, polarity
        )
        assert loss_a == loss_b
        np.testing.assert_array_equal(coeffs_a, coeffs_b)

        gw_a, gb_a = layer_local_grad(
            net.layers[1], trace.layer_input(1), trace.act[1], coeffs_a
        )
        gw_b, gb_b = layer_local_grad(
            net.layers[1], trace.layer_input(1), trace.act[1], coeffs_b
        )
        np.testing.assert_array_equal(gw_a, gw_b)
        np.testing.assert_array_equal(gb_a, gb_b)

    def test_successor_weights_do_not_change_layer_gradient(self, rng):
        """With a frozen gamma value, layer 1's gradient ignores layer 3."""
        net = random_net([8, 6, 5, 4], seed=12)
        batch = random_batch(rng, 5, 8)
        polarity = np.ones(5)
        gamma = np.full(5, 2.5)

        trace = forward_pass(net, batch)
        _, coeffs = ff_loss_and_coeffs(trace, 0, gamma, 3.0, polarity)
        grads_before = layer_local_grad(
            net.layers[0], trace.layer_input(0), trace.act[0], coeffs
        )

        net.layers[2].weights = net.layers[2].weights + 1.0
        trace2 = forward_pass(net, batch)
        _, coeffs2 = ff_loss_and_coeffs(trace2, 0, gamma, 3.0, polarity)
        grads_after = layer_local_grad(
            net.layers[0], trace2.layer_input(0), trace2.act[0], coeffs2
        )

        np.testing.assert_array_equal(grads_before[0], grads_after[0])
        np.testing.assert_array_equal(grads_before[1], grads_after[1])


class TestLossDirection:
    def _goodness_after_step(self, polarity_value):
        rng = make_rng(21)
        net = random_net([6, 5], seed=21)
        x = rng.uniform(0.3, 1.0, size=(1, 6))
        trace = forward_pass(net, x)
        g_before = float(goodness(trace, 0)[0])
        _, coeffs = ff_loss_and_coeffs(
            trace, 0, 0.0, g_before, np.array([polarity_value])
        )
        gw, gb = layer_local_grad(net.layers[0], x, trace.act[0], coeffs)
        lr = 1e-4
        net.layers[0].weights = net.layers[0].weights - lr * gw
        net.layers[0].biases = net.layers[0].biases - lr * gb
        g_after = float(goodness(forward_pass(net, x), 0)[0])
        return g_before, g_after

    def test_positive_step_does_not_decrease_goodness(self):
        before, after = self._goodness_after_step(+1.0)
        assert after >= before - 1e-12

    def test_negative_step_does_not_increase_goodness(self):
        before, after = self._goodness_after_step(-1.0)
        assert after <= before + 1e-12


class TestSchedules:
    def test_depth_one_schedules_identical_bitwise(self):
        train_ds, _ = synthetic_pair(120, 40, d=12, seed=5)
        kwargs = dict(theta=3.0, epochs=3, batch_size=20, seed=7)
        net_a = init_network([22, 10], make_rng(2))
        net_a, _ = train(
            net_a, train_ds, FfConfig(schedule="layerwise", **kwargs)
        )
        net_b = init_network([22, 10], make_rng(2))
        net_b, _ = train(
            net_b, train_ds, FfConfig(schedule="alternating", **kwargs)
        )
        np.testing.assert_array_equal(net_a.layers[0].weights, net_b.layers[0].weights)
        np.testing.assert_array_equal(net_a.layers[0].biases, net_b.layers[0].biases)

    def test_fixed_seed_is_bitwise_reproducible(self):
        train_ds, _ = synthetic_pair(120, 40, d=12, seed=5)
        cfg = FfConfig(
            theta=3.0, epochs=2, batch_size=20, seed=9,
            schedule="alternating", gamma_mode="all_other_layers",
        )
        nets = []
        for _ in range(2):
            net = init_network([22, 10, 8], make_rng(4))
            net, _ = train(net, train_ds, cfg)
            nets.append(net)
        for la, lb in zip(nets[0].layers, nets[1].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    @pytest.mark.parametrize("gamma_mode", ["predecessors_only", "all_other_layers"])
    def test_layerwise_trained_layers_stay_frozen(self, gamma_mode):
        """Adam updates in place, so no later stage may write into an earlier
        layer's arrays: each layer ends bitwise as its own stage left it."""
        train_ds, _ = synthetic_pair(80, 20, d=10, seed=8)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=5, gamma_mode=gamma_mode)
        net = init_network([20, 8, 6, 5], make_rng(3))
        initial = net.copy()
        after_stage = {}

        def on_epoch(epoch, current):
            if epoch % cfg.epochs == 0:
                stage = epoch // cfg.epochs - 1
                after_stage[stage] = current.layers[stage].copy()

        net, _ = train(net, train_ds, cfg, on_epoch)
        assert sorted(after_stage) == [0, 1, 2]
        for i, layer in enumerate(net.layers):
            assert layer.weights.tobytes() == after_stage[i].weights.tobytes()
            assert layer.biases.tobytes() == after_stage[i].biases.tobytes()
            assert not np.array_equal(layer.weights, initial.layers[i].weights)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            FfConfig(epochs=0)

    def test_entropy_rejects_one_sample_batches(self):
        """Every batch of one sample has one positive row, which the entropy
        estimate cannot use, so such a run would train nothing."""
        with pytest.raises(ConfigError, match="entropy objective needs 2 samples"):
            FfConfig(loss_kind="entropy", batch_size=1)
        FfConfig(loss_kind="entropy", batch_size=2)
        FfConfig(batch_size=1)

    @pytest.mark.parametrize("schedule", ["layerwise", "alternating"])
    def test_entropy_skips_trailing_one_sample_batch(self, schedule):
        """201 samples at batch 200 leave a batch of one positive and one
        negative row, which the entropy estimate cannot use."""
        from ffnet.synth import synthetic_dataset

        train_ds = synthetic_dataset(201, d=12, seed=4)
        cfg = FfConfig(
            loss_kind="entropy", schedule=schedule, epochs=2, batch_size=200, seed=1
        )
        net, rows = train(init_network([22, 8, 6], make_rng(0)), train_ds, cfg)
        assert len(rows) == 4  # 2 layers x 2 epochs
        assert all(np.isfinite(r["loss"]) for r in rows)
        for layer in net.layers:
            assert np.all(np.isfinite(layer.weights))

    def test_histories_have_expected_rows(self):
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1)
        net = init_network([20, 8, 6], make_rng(0))
        _, rows = train(net, train_ds, cfg)
        assert len(rows) == 4  # 2 layers x 2 epochs
        # Layerwise stages count epochs on: layer 2 trains in epochs 3 and 4.
        assert [(r["epoch"], r["layer"]) for r in rows] == [(1, 1), (2, 1), (3, 2), (4, 2)]
        assert all(r["split"] == "train" for r in rows)



class TestDivergence:
    """A non-finite loss names the 1-based layer and the epoch, as history.csv does."""

    @staticmethod
    def _nan_after_first_epochs(monkeypatch, module, name, epochs_before, layer=None):
        """Patch ``module.name`` to return a NaN loss once ``epochs_before``
        epochs are done (for ``layer`` only, if given); returns the callback
        that counts finished epochs."""
        original = getattr(module, name)
        done = {"epochs": 0}

        def patched(*args):
            loss, rest = original(*args)
            hit = done["epochs"] >= epochs_before and (layer is None or args[3] == layer)
            return (float("nan") if hit else loss), rest

        def on_epoch(epoch, net):
            done["epochs"] += 1

        monkeypatch.setattr(module, name, patched)
        return on_epoch

    @pytest.mark.parametrize(
        "schedule, epochs_before", [("alternating", 1), ("layerwise", 3)]
    )
    def test_ff_schedules(self, monkeypatch, schedule, epochs_before):
        import ffnet.ff as ff_module

        on_epoch = self._nan_after_first_epochs(
            monkeypatch, ff_module, "_layer_step", epochs_before, layer=1
        )
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1, schedule=schedule)
        net = init_network([20, 8, 6, 5], make_rng(0))
        # The NaN hits the first epoch after ``epochs_before``, counted across
        # stages: epoch 2 of the alternating run, epoch 4 of the layerwise one.
        with pytest.raises(
            FloatingPointError,
            match=rf"^non-finite loss at layer 2 in epoch {epochs_before + 1}; ",
        ):
            ff_module.train(net, train_ds, cfg, on_epoch)

    def test_pairwise(self, monkeypatch):
        import ffnet.baselines as baselines

        on_epoch = self._nan_after_first_epochs(
            monkeypatch, baselines, "ff_loss_and_coeffs", 1
        )
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1)
        net = init_network([20, 8, 6, 5], make_rng(0))
        with pytest.raises(
            FloatingPointError, match=r"^non-finite loss at layer 3 in epoch 2; "
        ):
            baselines.train_pairwise(net, train_ds, cfg, on_epoch)

    def test_classic(self, monkeypatch):
        import ffnet.baselines as baselines

        on_epoch = self._nan_after_first_epochs(
            monkeypatch, baselines, "softmax_cross_entropy", 1
        )
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(epochs=2, batch_size=20, seed=1)
        net = init_network([10, 8, 10], make_rng(0))
        with pytest.raises(
            FloatingPointError, match=r"^non-finite loss at layer 2 in epoch 2; "
        ):
            baselines.train_classic(net, train_ds, cfg, on_epoch=on_epoch)


class TestTrainSize:
    """Every epoch trains at least one batch, so a trainer rejects a training
    split of no samples, or of 1 under the entropy objective."""

    @pytest.mark.parametrize(
        "trainer, dims",
        [("train", [20, 8, 6]), ("train_pairwise", [20, 8, 6]),
         ("train_classic", [10, 8, 10])],
    )
    def test_empty_split_rejected(self, trainer, dims):
        import ffnet.baselines as baselines
        import ffnet.ff as ff_module

        train_fn = getattr(ff_module if trainer == "train" else baselines, trainer)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        with pytest.raises(
            ConfigError, match=r"^training needs 1 training sample, got 0$"
        ):
            train_fn(init_network(dims, make_rng(0)), train_ds.subset(0), FfConfig())

    def test_entropy_rejects_one_sample(self):
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(loss_kind="entropy", epochs=1, batch_size=20)
        net = init_network([20, 8, 6], make_rng(0))
        with pytest.raises(
            ConfigError, match=r"^the entropy objective needs 2 training samples, got 1$"
        ):
            train(net, train_ds.subset(1), cfg)
        train(net, train_ds.subset(2), cfg)


class TestInference:
    def test_single_candidate(self):
        net = random_net([14, 6], seed=3)  # input dim = 4 + 10
        assert infer(net, make_rng(0).uniform(size=4), labels=[7]) == 7

    def test_zero_weight_net_breaks_ties_to_smallest_label(self):
        net = random_net([14, 6], seed=3)
        for layer in net.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        assert infer(net, np.ones(4)) == 0

    def test_matches_bruteforce_oracle(self, rng):
        """Independent per-label forward pass, explicit python sums."""
        net = random_net([16, 7, 5], seed=13)
        samples = rng.uniform(0.0, 1.0, size=(12, 6))

        def oracle(x):
            best_label, best_score = None, None
            for y in range(10):
                onehot = [0.0] * 10
                onehot[y] = 1.0
                carry = np.array([list(x) + onehot])
                score = 0.0
                for layer in net.layers:
                    pre = carry @ layer.weights + layer.biases
                    act = relu(pre)
                    score += float(sum(v * v for v in act[0]))
                    carry = l2_row_normalize(act)
                if best_score is None or score > best_score:
                    best_label, best_score = y, score
            return best_label

        preds = predict(net, samples)
        expected = [oracle(x) for x in samples]
        np.testing.assert_array_equal(preds, expected)

    def test_mask_restricts_layers(self, rng):
        net = random_net([16, 7, 5], seed=14)
        samples = rng.uniform(size=(6, 6))
        full = predict(net, samples)
        only_first = predict(net, samples, mask=[0])
        assert full.shape == only_first.shape

    def test_empty_mask_rejected(self, rng):
        net = random_net([16, 7, 5], seed=15)
        with pytest.raises(ConfigError):
            predict(net, rng.uniform(size=(2, 6)), mask=[])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([-1], r"^candidate labels \[-1\] outside 0\.\.9$"),
            ([3, 10], r"^candidate labels \[3, 10\] outside 0\.\.9$"),
            ([], r"^candidate label set must be nonempty$"),
        ],
    )
    def test_bad_candidate_labels_rejected(self, labels, message):
        net = random_net([14, 6], seed=3)
        x = make_rng(0).uniform(size=4)
        with pytest.raises(ConfigError, match=message):
            infer(net, x, labels=labels)
        with pytest.raises(ConfigError, match=message):
            label_goodness_scores(net, x[None, :], labels)

    @pytest.mark.parametrize("width", [3, 5, 14])
    def test_image_width_must_fit_first_layer(self, width):
        """Images of the wrong width would mis-split the first layer's weights."""
        net = random_net([14, 6], seed=3)  # 4 pixels + 10 label units
        images = np.full((2, width), 0.5)
        with pytest.raises(ShapeError, match="network expects 14$"):
            label_goodness_scores(net, images)
        with pytest.raises(ShapeError):
            predict(net, images)


class TestFactoredScores:
    """label_goodness_scores against one forward pass per label on linked inputs."""

    @staticmethod
    def linked_oracle(net, images, labels):
        return np.stack(
            [
                goodness_table(
                    forward_pass(
                        net,
                        link_inputs(images, np.full(images.shape[0], y, dtype=np.int64)),
                    )
                )
                for y in sorted(labels)
            ],
            axis=1,
        )

    @pytest.mark.parametrize(
        "dims, n, labels",
        [
            ([16, 7, 5, 4], 11, range(10)),
            ([16, 7, 5, 4], 9, [8, 2, 5]),  # unsorted subset
            ([16, 9], 7, [9, 0, 4]),  # depth 1
        ],
    )
    def test_matches_linked_passes(self, rng, dims, n, labels):
        net = random_net(dims, seed=21)
        images = rng.uniform(size=(n, 6))
        got = label_goodness_scores(net, images, labels)
        want = self.linked_oracle(net, images, labels)
        assert got.shape == (n, len(labels), net.depth)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_ragged_chunks(self, rng, monkeypatch):
        import ffnet.ff as ff_module

        monkeypatch.setattr(ff_module, "SCORE_CHUNK", 4)
        net = random_net([16, 7, 5, 4], seed=22)
        images = rng.uniform(size=(10, 6))  # chunks of 4, 4 and 2
        got = label_goodness_scores(net, images, [7, 1, 3])
        want = self.linked_oracle(net, images, [7, 1, 3])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestFactoredTraining:
    """Label-factored layer 1 of training batches against their linked matrices."""

    @staticmethod
    def batches(negatives):
        train_ds, _ = synthetic_pair(23, 5, d=6, seed=12)
        return list(make_linked_batches(train_ds, make_rng(4), 10, negatives))

    @pytest.mark.parametrize("negatives", [1, 3])
    def test_matches_linked_layer(self, rng, negatives):
        net = random_net([16, 7, 5], seed=31)
        layer = net.layers[0]
        batches = self.batches(negatives)
        assert [b.images.shape[0] for b in batches] == [10, 10, 3]  # ragged last
        for batch in batches:
            linked = batch.linked_inputs()
            want = forward_pass(net, linked)
            got = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
            assert got.layer_input(0) is batch.images
            np.testing.assert_allclose(got.act[0], want.act[0], rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                goodness_table(got), goodness_table(want), rtol=1e-12, atol=0.0
            )
            coeffs = rng.standard_normal(want.act[0].shape)
            grad_w, grad_b = layer_local_grad(
                layer, batch.images, want.act[0], coeffs, batch.linked_labels
            )
            want_w, want_b = layer_local_grad(layer, linked, want.act[0], coeffs)
            assert grad_w.shape == want_w.shape == layer.weights.shape
            # Label rows included: rows 6.. of the gradient.
            np.testing.assert_allclose(grad_w, want_w, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(grad_b, want_b)

    def test_matches_finite_differences(self):
        net = random_net([16, 7], seed=32)
        layer = net.layers[0]
        batch = self.batches(3)[-1]  # 3 samples, 12 rows

        def loss():
            trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
            return ff_loss_and_coeffs(trace, 0, 0.0, 1.0, batch.polarity)[0]

        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        _, coeffs = ff_loss_and_coeffs(trace, 0, 0.0, 1.0, batch.polarity)
        grad_w, grad_b = layer_local_grad(
            layer, batch.images, trace.act[0], coeffs, batch.linked_labels
        )
        numeric_w = fd_grad(loss, layer.weights)
        numeric_b = fd_grad(loss, layer.biases)
        assert np.abs(grad_w[6:]).max() > 1e-3  # the label rows carry gradient
        assert agreement([grad_w[:6]], [numeric_w[:6]]) >= 0.99
        assert agreement([grad_w[6:]], [numeric_w[6:]]) >= 0.99
        assert agreement([grad_b], [numeric_b]) >= 0.99

    def test_shape_checks(self):
        net = random_net([16, 7], seed=33)
        layer = net.layers[0]
        batch = self.batches(1)[0]  # 10 samples, 20 rows
        coeffs = np.ones((20, 7))
        act = forward_pass(net, batch.images, linked_labels=batch.linked_labels).act[0]
        with pytest.raises(ShapeError, match="layer input has 15 columns"):
            layer_local_grad(layer, batch.images[:, :5], act, coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 7"):
            layer_local_grad(layer, batch.images[:7], act, coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 0"):
            layer_local_grad(layer, batch.images[:0], act, coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="batch has 15 columns"):
            forward_pass(net, batch.images[:, :5], linked_labels=batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 7"):
            forward_pass(net, batch.images[:7], linked_labels=batch.linked_labels)
        with pytest.raises(ShapeError, match="19 linked rows are not a multiple of 10"):
            layer_local_grad(
                layer, batch.images, act[:19], coeffs[:19], batch.linked_labels[:19]
            )
        with pytest.raises(ShapeError, match=r"coefficients shape \(10, 7\)"):
            layer_local_grad(layer, batch.images, act, coeffs[:10], batch.linked_labels)


class TestGammaReducesToPlain:
    def test_alternating_gamma_none_matches_handrolled_round_robin(self):
        """With gamma off, the alternating trainer is plain per-batch FF."""
        from ffnet.nn import apply_adam_update, make_adam_states

        train_ds, _ = synthetic_pair(80, 20, d=10, seed=8)
        cfg = FfConfig(
            theta=4.0, epochs=2, batch_size=20, seed=3,
            schedule="alternating", gamma_mode="none",
        )
        net_a = init_network([20, 8, 6], make_rng(1))
        net_a, _ = train(net_a, train_ds, cfg)

        net_b = init_network([20, 8, 6], make_rng(1))
        rng = make_rng(cfg.seed)
        states = make_adam_states(net_b, cfg.learning_rate)
        for _ in range(cfg.epochs):
            for batch in make_linked_batches(train_ds, rng, cfg.batch_size, 1):
                trace = forward_pass(
                    net_b, batch.images, linked_labels=batch.linked_labels
                )
                updates = []
                for i in range(net_b.depth):
                    _, coeffs = ff_loss_and_coeffs(
                        trace, i, np.zeros(batch.polarity.shape[0]),
                        cfg.theta, batch.polarity,
                    )
                    updates.append(
                        layer_local_grad(
                            net_b.layers[i], trace.layer_input(i), trace.act[i], coeffs,
                            batch.linked_labels if i == 0 else None,
                        )
                    )
                for i, (gw, gb) in enumerate(updates):
                    apply_adam_update(net_b, i, gw, gb, states)

        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)
