import copy
import weakref

import numpy as np
import pytest
from conftest import (
    SIGMOID_EDGES,
    agreement,
    fd_grad,
    random_batch,
    random_net,
    trace_from_activities,
    traced_peak,
)

from ffnet import nn
from ffnet.data import Dataset, draw_eval_sample, link_inputs, make_linked_batches
from ffnet.errors import ConfigError, DataFormatError, DomainError, ShapeError
from ffnet.ff import (
    FfConfig,
    compute_gamma,
    entropy_loss_and_coeffs,
    ff_loss_and_coeffs,
    goodness_loss,
    goodness_table,
    label_goodness_scores,
    positive_prob,
    predict,
    schedule_stages,
    train,
)
from ffnet.fetch import fetch_dataset, load_dataset
from ffnet.linalg import l2_row_normalize, make_rng, relu, row_sumsq
from ffnet.nn import backprop_updates, forward_pass, init_network, layer_local_grad
from ffnet.runner import METHOD_TABLE, RunConfig
from ffnet.synth import synthetic_dataset, synthetic_pair


class TestGoodness:
    def test_three_four_gives_twenty_five(self):
        trace = trace_from_activities(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(trace.goodness[0], [25.0])

    def test_zero_activities(self):
        trace = trace_from_activities(np.zeros((4, 6)))
        np.testing.assert_array_equal(trace.goodness[0], np.zeros(4))

    def test_matches_explicit_sum_of_squares(self, rng):
        act = rng.standard_normal((10, 8))
        trace = trace_from_activities(act)
        manual = np.array([sum(v * v for v in row) for row in act])
        np.testing.assert_allclose(trace.goodness[0], manual, atol=1e-12)

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
        edges = SIGMOID_EDGES[~np.isnan(SIGMOID_EDGES)]
        for g in (-1e6, -800.0, 0.0, 800.0, 1e6, *edges):
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

    @pytest.mark.parametrize("layer", [-1, 3])
    def test_layer_outside_the_table_rejected(self, layer):
        with pytest.raises(ShapeError, match=f"^layer {layer} outside table depth 3$"):
            compute_gamma(self._table(), layer, "none")


@pytest.mark.parametrize("loss_kind", ["sigmoid_goodness", "entropy"])
def test_goodness_loss_rejects_a_polarity_of_another_shape(loss_kind):
    with pytest.raises(ShapeError, match=r"^polarity shape \(3,\) does not match batch of 4$"):
        goodness_loss(np.ones(4), 0.0, np.array([1.0, 1.0, -1.0]), loss_kind, 1.0)


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



@pytest.mark.parametrize(
    ("field", "choices"),
    [
        ("gamma_mode", "('none', 'all_other_layers', 'predecessors_only')"),
        ("schedule", "('layerwise', 'alternating')"),
        ("loss_kind", "('sigmoid_goodness', 'entropy')"),
        ("method", "('ff', 'collab_ff', 'entropy_ff', 'bp_pairwise', 'bp_classic')"),
        ("dataset", "('mnist', 'fashion_mnist')"),
        ("split", "('train', 'test')"),
    ],
)
def test_an_unknown_choice_is_one_message_at_every_site(tmp_path, field, choices):
    """Every public call that takes a choice setting rejects a value outside
    its choices through ``errors.check_choice``, with the same message."""
    polarity = np.array([1.0, 1.0, -1.0, -1.0])
    sites = {
        "gamma_mode": [lambda v: FfConfig(gamma_mode=v),
                       lambda v: compute_gamma(np.ones((4, 3)), 1, v)],
        "schedule": [lambda v: FfConfig(schedule=v), lambda v: schedule_stages(v, 3)],
        "loss_kind": [lambda v: FfConfig(loss_kind=v),
                      lambda v: goodness_loss(np.ones(4), 0.0, polarity, v, 1.0)],
        "method": [lambda v: RunConfig(method=v).resolved()],
        "dataset": [lambda v: fetch_dataset(v, tmp_path),
                    lambda v: load_dataset(v, "train", tmp_path)],
        "split": [lambda v: load_dataset("mnist", v, tmp_path)],
    }[field]
    messages = []
    for site in sites:
        with pytest.raises(ConfigError) as caught:
            site("bogus")
        messages.append(str(caught.value))
    assert messages == [f"{field} must be one of {choices}, got 'bogus'"] * len(sites)
    assert list(tmp_path.iterdir()) == []


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
        with pytest.raises(DomainError):
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
            net.layers[1], trace.layer_input(1), coeffs_a
        )
        gw_b, gb_b = layer_local_grad(
            net.layers[1], trace.layer_input(1), coeffs_b
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
            net.layers[0], trace.layer_input(0), coeffs
        )

        net.layers[2].weights = net.layers[2].weights + 1.0
        trace2 = forward_pass(net, batch)
        _, coeffs2 = ff_loss_and_coeffs(trace2, 0, gamma, 3.0, polarity)
        grads_after = layer_local_grad(
            net.layers[0], trace2.layer_input(0), coeffs2
        )

        np.testing.assert_array_equal(grads_before[0], grads_after[0])
        np.testing.assert_array_equal(grads_before[1], grads_after[1])


class TestLossDirection:
    def _goodness_after_step(self, polarity_value):
        rng = make_rng(21)
        net = random_net([6, 5], seed=21)
        x = rng.uniform(0.3, 1.0, size=(1, 6))
        trace = forward_pass(net, x)
        g_before = float(trace.goodness[0][0])
        _, coeffs = ff_loss_and_coeffs(
            trace, 0, 0.0, g_before, np.array([polarity_value])
        )
        gw, gb = layer_local_grad(net.layers[0], x, coeffs)
        lr = 1e-4
        net.layers[0].weights = net.layers[0].weights - lr * gw
        net.layers[0].biases = net.layers[0].biases - lr * gb
        g_after = float(forward_pass(net, x).goodness[0][0])
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

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("batch_size", [25, 40], ids=["ragged", "even"])
    @pytest.mark.parametrize("loss_kind", ["sigmoid_goodness", "entropy"])
    def test_schedule_alone_cannot_change_layer_one(self, loss_kind, batch_size, seed):
        """Without gamma, layer 1's gradient reads no other layer, so E epochs
        leave it byte-equal under both schedules, with or without a ragged last
        batch; the later layers differ."""
        train_ds, _ = synthetic_pair(120, 40, d=12, seed=seed)
        nets = []
        for schedule in ("layerwise", "alternating"):
            cfg = FfConfig(theta=3.0, schedule=schedule, loss_kind=loss_kind, epochs=3,
                           batch_size=batch_size, seed=seed)
            nets.append(train(init_network([22, 10, 8, 6], make_rng(seed)), train_ds, cfg)[0])
        first, second = (net.layers for net in nets)
        assert first[0].weights.tobytes() == second[0].weights.tobytes()
        assert first[0].biases.tobytes() == second[0].biases.tobytes()
        assert first[1].weights.tobytes() != second[1].weights.tobytes()

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


class TestCollaborationCostCount:
    """The paper says collaboration needs no additional computation. The cost
    counted here is linked rows times layers computed, summed over every
    ``nn.forward_from_pre`` call of one ``ff.train``. An epoch links each of
    n samples twice. Under ``layerwise`` a stage computes the layers up to
    the staged one, or all L layers under ``all_other_layers``, whose gamma
    reads the untrained layers above; under ``alternating`` an epoch
    computes every layer once. For E epochs per stage that is nE*L(L+1),
    2nE*L**2 and 2nE*L."""

    # 40 samples, batch 10, 1 epoch, a 3-layer net.
    CELLS = {
        ("layerwise", "none"): 480,
        ("layerwise", "predecessors_only"): 480,
        ("layerwise", "all_other_layers"): 720,
        ("alternating", "none"): 240,
        ("alternating", "predecessors_only"): 240,
        ("alternating", "all_other_layers"): 240,
    }

    @staticmethod
    def _count(depth, schedule, gamma_mode, n=40, epochs=1):
        """Rows times layers of every forward of one ``ff.train``."""
        counted = []
        forward_from_pre = nn.forward_from_pre

        def counting(net, first_pre, upto=None, classic=False, keep=None):
            counted.append(len(first_pre) * (net.depth if upto is None else upto))
            return forward_from_pre(net, first_pre, upto, classic, keep)

        cfg = FfConfig(theta=3.0, schedule=schedule, gamma_mode=gamma_mode,
                       epochs=epochs, batch_size=10, seed=1)
        net = init_network([22] + [8] * depth, make_rng(0))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nn, "forward_from_pre", counting)
            train(net, synthetic_dataset(n, d=12, seed=5), cfg)
        return sum(counted)

    @pytest.mark.parametrize("schedule, gamma_mode", list(CELLS))
    def test_each_cell_counts_as_pinned(self, schedule, gamma_mode):
        assert self._count(3, schedule, gamma_mode) == self.CELLS[schedule, gamma_mode]

    @pytest.mark.parametrize("depth", [2, 4])
    def test_the_counts_follow_the_formulas_at_any_depth(self, depth):
        n, epochs, L = 20, 2, depth
        counts = {
            cell: self._count(depth, *cell, n=n, epochs=epochs) for cell in self.CELLS
        }
        for gamma_mode in ("none", "predecessors_only"):
            assert counts["layerwise", gamma_mode] == n * epochs * L * (L + 1)
        assert counts["layerwise", "all_other_layers"] == 2 * n * epochs * L**2
        # Under alternating, gamma reads goodness the forward already computed.
        for gamma_mode in ("none", "predecessors_only", "all_other_layers"):
            assert counts["alternating", gamma_mode] == 2 * n * epochs * L

    def test_collab_ff_counts_no_more_than_ff_at_equal_epochs(self):
        ff_count, collab_count = (
            self._count(3, METHOD_TABLE[method].schedule, METHOD_TABLE[method].gamma_mode)
            for method in ("ff", "collab_ff")
        )
        assert collab_count <= ff_count


class TestDivergence:
    """A non-finite loss names the 1-based layer and the epoch, as history.csv does."""

    @staticmethod
    def _poison_after(monkeypatch, module, name, epochs_before, poison):
        """Patch ``module.name`` so that, once ``epochs_before`` epochs are done,
        its result is ``poison(args, result)``; returns the callback that counts
        finished epochs."""
        original = getattr(module, name)
        done = {"epochs": 0}

        def patched(*args):
            result = original(*args)
            return poison(args, result) if done["epochs"] >= epochs_before else result

        def on_epoch(epoch, net):
            done["epochs"] += 1

        monkeypatch.setattr(module, name, patched)
        return on_epoch

    @staticmethod
    def _infinite_gamma(monkeypatch, epochs_before, layer):
        """Patch ``ff.compute_gamma`` to give ``layer`` an infinite gamma, so an
        infinite goodness loss, once ``epochs_before`` epochs are done."""
        import ffnet.ff as ff_module

        def poison(args, gamma):
            return np.full_like(gamma, np.inf) if args[1] == layer else gamma

        return TestDivergence._poison_after(
            monkeypatch, ff_module, "compute_gamma", epochs_before, poison
        )

    @pytest.mark.parametrize(
        "schedule, epochs_before", [("alternating", 1), ("layerwise", 3)]
    )
    def test_ff_schedules(self, monkeypatch, schedule, epochs_before):
        import ffnet.ff as ff_module

        on_epoch = self._infinite_gamma(monkeypatch, epochs_before, layer=1)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1, schedule=schedule)
        net = init_network([20, 8, 6, 5], make_rng(0))
        # The infinite loss hits the first epoch after ``epochs_before``, counted
        # across stages: epoch 2 of the alternating run, epoch 4 of the layerwise one.
        with pytest.raises(
            FloatingPointError,
            match=rf"^non-finite loss at layer 2 in epoch {epochs_before + 1}; ",
        ):
            ff_module.train(net, train_ds, cfg, on_epoch)

    def test_pairwise(self, monkeypatch):
        import ffnet.baselines as baselines

        # The pairwise step reads no gamma: poison its one goodness loss.
        on_epoch = self._poison_after(
            monkeypatch, baselines, "goodness_loss", 1,
            lambda args, result: (np.inf, result[1]),
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

        on_epoch = self._poison_after(
            monkeypatch, baselines, "softmax_cross_entropy", 1,
            lambda args, result: (float("nan"), result[1]),
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


class TestTrainingMemory:
    """Training holds one stage's Adam moments, the backprop baselines free
    their trace layer by layer, and nothing of an epoch's last batch is alive
    when ``on_epoch`` runs."""

    def test_layerwise_training_holds_one_stages_moments(self):
        """A layerwise 794-500-500-500 run peaks under the net, one layer's two
        moments and a slack; moments for all three layers are 8 MB more."""
        train_ds = synthetic_dataset(20, d=784, seed=5)
        cfg = FfConfig(epochs=1, batch_size=20, seed=0)
        nets = []

        def run():
            net = init_network([794, 500, 500, 500], make_rng(0))
            nets.append(train(net, train_ds, cfg)[0])

        peak = traced_peak(run)
        sizes = [lay.weights.nbytes + lay.biases.nbytes for lay in nets[0].layers]
        # 5 MB covers the staged layer's gradients (up to 3.2 MB) and the batch;
        # measured at 3.6 MB above the net and the largest moments.
        assert peak < sum(sizes) + 2 * max(sizes) + 5_000_000

    @pytest.mark.parametrize(
        ("trainer", "dims", "slack"),
        [("train_pairwise", [794, 500, 500, 500], 19_000_000),
         ("train_classic", [784, 500, 500, 500, 10], 9_500_000)],
    )
    def test_backprop_baselines_release_the_trace_layer_by_layer(self, trainer, dims, slack):
        """A batch-200 epoch of a backprop baseline peaks under the net, its
        moments for every layer and a slack. Adam steps each layer as its
        gradient is yielded, and the trace is released layer by layer; the
        second batch's backward pass runs beside all the moments."""
        import ffnet.baselines as baselines

        train_ds = synthetic_dataset(400, d=784, seed=5)
        cfg = FfConfig(epochs=1, batch_size=200, seed=0)
        nets = []

        def run():
            net = init_network(dims, make_rng(0))
            nets.append(getattr(baselines, trainer)(net, train_ds, cfg)[0])

        peak = traced_peak(run)
        size = sum(lay.weights.nbytes + lay.biases.nbytes for lay in nets[0].layers)
        # Measured above the net and its moments: pairwise 14.6 MB, classic
        # 6.5 MB; 23.0 and 12.5 MB when all gradients were returned at once.
        assert peak < 3 * size + slack

    TRAINERS = pytest.mark.parametrize(
        "trainer, dims, schedule",
        [("train", [20, 8, 6, 5], "layerwise"), ("train", [20, 8, 6, 5], "alternating"),
         ("train_pairwise", [20, 8, 6], "layerwise"),
         ("train_classic", [10, 8, 10], "layerwise")],
    )

    @staticmethod
    def _alive_counts(monkeypatch, trainer, dims, schedule, at):
        """Train while weakly recording every Adam update's gradients; return
        the records and how many were alive at each ``on_epoch`` call (``at``
        "on_epoch") or at the start of each forward pass (``at`` "forward")."""
        import ffnet.baselines as baselines
        import ffnet.ff as ff_module

        refs, alive = [], []
        update = ff_module.apply_adam_update

        def count_alive(*_):
            alive.append(sum(ref() is not None for ref in refs))

        def recording_update(net, layer, grad_w, grad_b, states):
            refs.extend(weakref.ref(grad) for grad in (grad_w, grad_b))
            update(net, layer, grad_w, grad_b, states)

        def watched_forward(*args, **kwargs):
            count_alive()
            return forward_pass(*args, **kwargs)

        monkeypatch.setattr(ff_module, "apply_adam_update", recording_update)
        if at == "forward":
            monkeypatch.setattr(ff_module, "forward_pass", watched_forward)
            monkeypatch.setattr(baselines, "forward_pass", watched_forward)
        train_fn = getattr(ff_module if trainer == "train" else baselines, trainer)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1, schedule=schedule)
        on_epoch = count_alive if at == "on_epoch" else None
        train_fn(init_network(dims, make_rng(0)), train_ds, cfg, on_epoch=on_epoch)
        return refs, alive

    @TRAINERS
    def test_no_gradient_is_alive_at_on_epoch(self, monkeypatch, trainer, dims, schedule):
        refs, alive = self._alive_counts(monkeypatch, trainer, dims, schedule, "on_epoch")
        assert refs and alive
        assert alive == [0] * len(alive)

    @TRAINERS
    def test_no_earlier_batchs_gradient_is_alive_at_a_forward_pass(
        self, monkeypatch, trainer, dims, schedule
    ):
        """Every recorded gradient belongs to an earlier batch when a batch's
        forward pass starts, so none may still be alive then."""
        refs, alive = self._alive_counts(monkeypatch, trainer, dims, schedule, "forward")
        assert refs and len(alive) > 1
        assert alive == [0] * len(alive)

    def test_collab_batch_steps_each_layer_before_the_next_gradient(self, monkeypatch):
        """One alternating batch computes a layer's gradient, lets Adam step it,
        and only then computes the next layer's."""
        import ffnet.ff as ff_module

        calls = []
        grad, update = ff_module.layer_local_grad, ff_module.apply_adam_update

        def recording_grad(layer, *args):
            calls.append(("grad", layer.in_dim))
            return grad(layer, *args)

        def recording_update(net, i, *args):
            calls.append(("adam", net.layers[i].in_dim))
            return update(net, i, *args)

        monkeypatch.setattr(ff_module, "layer_local_grad", recording_grad)
        monkeypatch.setattr(ff_module, "apply_adam_update", recording_update)
        train_ds, _ = synthetic_pair(20, 5, d=10, seed=6)  # one batch
        cfg = FfConfig(
            theta=3.0, epochs=1, batch_size=20, seed=1,
            schedule="alternating", gamma_mode="all_other_layers",
        )
        train(init_network([20, 8, 6, 5], make_rng(0)), train_ds, cfg)
        assert calls == [(kind, in_dim) for in_dim in (20, 8, 6) for kind in ("grad", "adam")]

    @TRAINERS
    def test_no_trace_activity_is_alive_at_a_batchs_last_update(
        self, monkeypatch, trainer, dims, schedule
    ):
        """Each step drops its trace before it yields its last update, so Adam
        never steps that update beside the batch's activities. Every activity
        the forward pass made is watched, where the loop measures its
        goodness, so also one that the pass itself did not keep."""
        import ffnet.baselines as baselines
        import ffnet.ff as ff_module
        import ffnet.nn as nn_module

        refs, batches = [], []
        update = ff_module.apply_adam_update

        def watched_forward(*args, **kwargs):
            refs.clear()
            batches.append([])
            return forward_pass(*args, **kwargs)

        def watched_goodness(act):
            refs.append(weakref.ref(act))
            return row_sumsq(act)

        def watched_update(*args):
            batches[-1].append((len(refs), sum(ref() is not None for ref in refs)))
            return update(*args)

        monkeypatch.setattr(ff_module, "forward_pass", watched_forward)
        monkeypatch.setattr(baselines, "forward_pass", watched_forward)
        monkeypatch.setattr(nn_module, "row_sumsq", watched_goodness)
        monkeypatch.setattr(ff_module, "apply_adam_update", watched_update)
        train_fn = getattr(ff_module if trainer == "train" else baselines, trainer)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1, schedule=schedule)
        train_fn(init_network(dims, make_rng(0)), train_ds, cfg)
        assert len(batches) > 1 and all(batches)
        assert all(made for alive in batches for made, _ in alive)
        assert [alive[-1][1] for alive in batches] == [0] * len(batches)

    def test_a_layerwise_batch_holds_only_its_layers_arrays(self, monkeypatch):
        """When a stage-s batch (gamma none) takes layer s's gradient, of every
        activity and normalized array its forward pass made, only layer s's
        activities and its input (the normalized rows of layer s - 1) are alive."""
        import ffnet.ff as ff_module
        import ffnet.nn as nn_module

        made, seen = [], []
        net = init_network([20, 8, 6, 5], make_rng(0))
        grad = ff_module.layer_local_grad

        def watched_forward(*args, **kwargs):
            made.clear()
            return forward_pass(*args, **kwargs)

        def record(kind, array):
            made.append((kind, sum(k == kind for k, _, _ in made), weakref.ref(array)))
            return array

        def watched_grad(layer, *args):
            [s] = [i for i, lay in enumerate(net.layers) if lay is layer]
            alive = {(kind, i) for kind, i, ref in made if ref() is not None}
            computed = sum(kind == "act" for kind, _, _ in made)
            seen.append((s, computed, alive))
            return grad(layer, *args)

        monkeypatch.setattr(ff_module, "forward_pass", watched_forward)
        monkeypatch.setattr(nn_module, "row_sumsq", lambda act: row_sumsq(record("act", act)))
        monkeypatch.setattr(
            nn_module, "l2_row_normalize", lambda act: record("normed", l2_row_normalize(act))
        )
        monkeypatch.setattr(ff_module, "layer_local_grad", watched_grad)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        train(net, train_ds, FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1))
        assert {s for s, _, _ in seen} == {0, 1, 2}
        for s, computed, alive in seen:
            assert computed == s + 1
            assert alive == {("act", s)} | ({("normed", s - 1)} if s else set())

    @TRAINERS
    def test_no_adam_moment_is_alive_at_a_stages_last_on_epoch(
        self, monkeypatch, trainer, dims, schedule
    ):
        """A stage's training is over before its last ``on_epoch``, so its Adam
        pairs are gone by then; at its other epochs they are alive."""
        import ffnet.baselines as baselines
        import ffnet.ff as ff_module
        from ffnet.nn import AdamState

        refs, alive = [], []
        for_param = AdamState.for_param

        def watched_for_param(param, learning_rate):
            state = for_param(param, learning_rate)
            refs.extend(weakref.ref(m) for m in (state.first_moment, state.second_moment))
            return state

        def on_epoch(epoch, net):
            alive.append((epoch, sum(ref() is not None for ref in refs)))

        monkeypatch.setattr(AdamState, "for_param", watched_for_param)
        train_fn = getattr(ff_module if trainer == "train" else baselines, trainer)
        train_ds, _ = synthetic_pair(60, 20, d=10, seed=6)
        cfg = FfConfig(theta=3.0, epochs=2, batch_size=20, seed=1, schedule=schedule)
        train_fn(init_network(dims, make_rng(0)), train_ds, cfg, on_epoch=on_epoch)
        assert refs and alive
        assert all(count == 0 for epoch, count in alive if epoch % cfg.epochs == 0)
        assert all(count > 0 for epoch, count in alive if epoch % cfg.epochs)


class TestInference:
    def test_zero_weight_net_breaks_ties_to_smallest_label(self):
        net = random_net([14, 6], seed=3)
        for layer in net.layers:
            layer.weights = np.zeros_like(layer.weights)
            layer.biases = np.zeros_like(layer.biases)
        assert predict(net, np.ones((1, 4)))[0] == 0

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

    def test_empty_split_has_no_test_error(self):
        """A test error of 0 samples is a ConfigError, not a warned nan; a
        prediction of 0 samples is an empty array."""
        import ffnet.ff as ff_module
        from ffnet.analysis import evaluate_subsets
        from ffnet.baselines import classic_test_error
        from ffnet.entropy import goodness_entropy_reports

        empty = synthetic_dataset(0, d=6, seed=3, split="test")
        net, head = random_net([16, 7, 5], seed=16), random_net([6, 7, 10], seed=16)
        errors = [
            lambda: ff_module.test_error(net, empty),
            lambda: classic_test_error(head, empty),
            lambda: evaluate_subsets(net, empty, [{0}]),
            lambda: goodness_entropy_reports(net, empty),
        ]
        for error in errors:
            with pytest.raises(ConfigError, match=r"^evaluation needs 1 test sample, got 0$"):
                error()
        assert predict(net, np.empty((0, 6))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_is_one_error_not_a_vote(self, bad):
        """A non-finite array value is the error a Dataset gives for a NaN
        pixel, naming the first bad row; finite values outside [0, 1] score."""
        from ffnet.baselines import classic_logits

        net, head = random_net([16, 7, 5], seed=17), random_net([6, 7, 10], seed=17)
        images = np.full((3, 6), 0.5)
        images[1, 4] = images[2, 0] = bad
        for scorer in (predict, label_goodness_scores):
            with pytest.raises(DataFormatError, match=r"^non-finite pixel value in row 1$"):
                scorer(net, images)
        with pytest.raises(DataFormatError, match=r"^non-finite pixel value in row 1$"):
            classic_logits(head, images)
        with pytest.raises(DataFormatError, match=r"^non-finite pixel value in row 0$"):
            predict(net, images[1][None])
        assert predict(net, np.full((2, 6), 2.0)).shape == (2,)

    @pytest.mark.parametrize("width", [3, 5, 14])
    def test_image_width_must_fit_first_layer(self, width):
        """Images of the wrong width would mis-split the first layer's weights."""
        net = random_net([14, 6], seed=3)  # 4 pixels + 10 label units
        images = np.full((2, width), 0.5)
        with pytest.raises(ShapeError, match="network expects 14$"):
            label_goodness_scores(net, images)
        with pytest.raises(ShapeError):
            predict(net, images)
        with pytest.raises(ShapeError, match="network expects 14$"):
            predict(net, images[:0])


class TestFactoredScores:
    """label_goodness_scores against one forward pass per label on linked inputs."""

    @staticmethod
    def linked_oracle(net, images):
        return np.stack(
            [
                goodness_table(
                    forward_pass(
                        net,
                        link_inputs(images, np.full(images.shape[0], y, dtype=np.int64)),
                    )
                )
                for y in range(10)
            ],
            axis=1,
        )

    @pytest.mark.parametrize(
        "dims, n",
        [
            ([16, 7, 5, 4], 11),
            ([16, 7, 5, 4], 9),
            ([16, 9], 7),  # depth 1
        ],
    )
    def test_matches_linked_passes(self, rng, dims, n):
        net = random_net(dims, seed=21)
        images = rng.uniform(size=(n, 6))
        got = label_goodness_scores(net, images)
        want = self.linked_oracle(net, images)
        assert got.shape == (n, 10, net.depth)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_ragged_chunks(self, rng, monkeypatch):
        import ffnet.ff as ff_module

        monkeypatch.setattr(ff_module, "SCORE_CHUNK", 4)
        net = random_net([16, 7, 5, 4], seed=22)
        images = rng.uniform(size=(10, 6))  # chunks of 4, 4 and 2
        got = label_goodness_scores(net, images)
        want = self.linked_oracle(net, images)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_dataset_rows_match_their_array(self, n):
        """A Dataset, whole or as the shuffled evaluation sample drawn from it,
        scores its rows as the float64 array of the same rows does, byte for byte."""
        rng = make_rng(n)
        ds = Dataset(rng.integers(0, 256, size=(n + 7, 6), dtype=np.uint8),
                     rng.integers(0, 10, size=n + 7), "synthetic", "test")
        net = random_net([16, 7, 5, 4], seed=23)
        idx, sample, _ = draw_eval_sample(ds, n, seed=n)
        assert len(idx) == n
        for source, rows in [(ds, np.arange(ds.n)), (sample, idx)]:
            got = label_goodness_scores(net, source)
            want = label_goodness_scores(net, ds.rows(rows))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_uint8_array_scores_as_its_dataset(self):
        """A uint8 array is read as byte / 255, as a Dataset of the same bytes
        is: over three chunks its goodness, predictions and classic logits
        equal the Dataset's, byte for byte."""
        from ffnet.baselines import classic_logits

        rng = make_rng(41)
        ds = Dataset(rng.integers(0, 256, size=(600, 6), dtype=np.uint8),
                     rng.integers(0, 10, size=600), "synthetic", "test")
        net, head = random_net([16, 7, 5, 4], seed=24), random_net([6, 7, 10], seed=24)
        scorers = [(label_goodness_scores, net), (predict, net), (classic_logits, head)]
        for scorer, model in scorers:
            got, want = scorer(model, ds.pixels), scorer(model, ds)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestFactoredTraining:
    """Label-factored layer 1 of training batches against their linked matrices."""

    @staticmethod
    def batches(batch_size=10):
        train_ds, _ = synthetic_pair(23, 5, d=6, seed=12)
        return list(make_linked_batches(train_ds, make_rng(4), batch_size))

    @pytest.mark.parametrize(
        ("batch_size", "sizes"), [(10, [10, 10, 3]), (23, [23])], ids=["ragged", "whole"]
    )
    def test_matches_linked_layer(self, rng, batch_size, sizes):
        net = random_net([16, 7, 5], seed=31)
        layer = net.layers[0]
        batches = self.batches(batch_size)
        assert [b.images.shape[0] for b in batches] == sizes
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
            grad_w, grad_b = layer_local_grad(layer, batch.images, coeffs, batch.linked_labels)
            want_w, want_b = layer_local_grad(layer, linked, coeffs)
            assert grad_w.shape == want_w.shape == layer.weights.shape
            # Label rows included: rows 6.. of the gradient.
            np.testing.assert_allclose(grad_w, want_w, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(grad_b, want_b)

    def test_matches_finite_differences(self):
        net = random_net([16, 7], seed=32)
        layer = net.layers[0]
        batch = self.batches()[-1]  # 3 samples, 6 rows

        def loss():
            trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
            return ff_loss_and_coeffs(trace, 0, 0.0, 1.0, batch.polarity)[0]

        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        _, coeffs = ff_loss_and_coeffs(trace, 0, 0.0, 1.0, batch.polarity)
        grad_w, grad_b = layer_local_grad(layer, batch.images, coeffs, batch.linked_labels)
        numeric_w = fd_grad(loss, layer.weights)
        numeric_b = fd_grad(loss, layer.biases)
        assert np.abs(grad_w[6:]).max() > 1e-3  # the label rows carry gradient
        assert agreement([grad_w[:6]], [numeric_w[:6]]) >= 0.99
        assert agreement([grad_w[6:]], [numeric_w[6:]]) >= 0.99
        assert agreement([grad_b], [numeric_b]) >= 0.99

    def test_shape_checks(self):
        net = random_net([16, 7], seed=33)
        layer = net.layers[0]
        batch = self.batches()[0]  # 10 samples, 20 rows
        coeffs = np.ones((20, 7))
        with pytest.raises(ShapeError, match="layer input has 15 columns"):
            layer_local_grad(layer, batch.images[:, :5], coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 7"):
            layer_local_grad(layer, batch.images[:7], coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 0"):
            layer_local_grad(layer, batch.images[:0], coeffs, batch.linked_labels)
        with pytest.raises(ShapeError, match="batch has 15 columns"):
            forward_pass(net, batch.images[:, :5], linked_labels=batch.linked_labels)
        with pytest.raises(ShapeError, match="20 linked rows are not a multiple of 7"):
            forward_pass(net, batch.images[:7], linked_labels=batch.linked_labels)
        with pytest.raises(ShapeError, match="19 linked rows are not a multiple of 10"):
            layer_local_grad(layer, batch.images, coeffs[:19], batch.linked_labels[:19])
        with pytest.raises(ShapeError, match=r"pre-activation gradient shape \(10, 7\)"):
            layer_local_grad(layer, batch.images, coeffs[:10], batch.linked_labels)


class TestGammaReducesToPlain:
    def test_alternating_gamma_none_matches_handrolled_round_robin(self):
        """With gamma off, the alternating trainer is plain per-batch FF."""
        from ffnet.nn import AdamState, apply_adam_update

        train_ds, _ = synthetic_pair(80, 20, d=10, seed=8)
        cfg = FfConfig(
            theta=4.0, epochs=2, batch_size=20, seed=3,
            schedule="alternating", gamma_mode="none",
        )
        net_a = init_network([20, 8, 6], make_rng(1))
        net_a, _ = train(net_a, train_ds, cfg)

        net_b = init_network([20, 8, 6], make_rng(1))
        rng = make_rng(cfg.seed)
        states = {}
        for _ in range(cfg.epochs):
            for batch in make_linked_batches(train_ds, rng, cfg.batch_size):
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
                            net_b.layers[i], trace.layer_input(i), coeffs,
                            batch.linked_labels if i == 0 else None,
                        )
                    )
                for i, (gw, gb) in enumerate(updates):
                    # A layer's state pair is made at its first update, as fit makes it.
                    if i not in states:
                        lay = net_b.layers[i]
                        states[i] = (
                            AdamState.for_param(lay.weights, cfg.learning_rate),
                            AdamState.for_param(lay.biases, cfg.learning_rate),
                        )
                    apply_adam_update(net_b, i, gw, gb, states)

        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)


class TestTrainingAppliesTheCheckedGradients:
    """Each trainer's batch step, bit for bit, is the finite-difference-checked
    ``ff_loss_and_coeffs`` / ``entropy_loss_and_coeffs`` (negated: training
    minimizes) fed to ``layer_local_grad``, or to ``backprop_updates`` for the
    pairwise baseline, with gamma from ``compute_gamma``."""

    @staticmethod
    def _record(monkeypatch, trainer_module):
        """Patch ``trainer_module.fit`` and ``ff.apply_adam_update`` so each batch
        records the network before it, the batch, its layers and the
        ``(layer, grad_w, grad_b)`` updates that fit applies."""
        import ffnet.ff as ff_module

        records = []
        real_fit, real_apply = trainer_module.fit, ff_module.apply_adam_update

        def fit(net, cfg, stages, batches, step, *rest):
            def recorded(batch, layers, stats):
                records.append((copy.deepcopy(net), batch, layers, []))
                return step(batch, layers, stats)

            return real_fit(net, cfg, stages, batches, recorded, *rest)

        def apply(net, i, grad_w, grad_b, states):
            records[-1][3].append((i, grad_w.copy(), grad_b.copy()))
            return real_apply(net, i, grad_w, grad_b, states)

        monkeypatch.setattr(trainer_module, "fit", fit)
        monkeypatch.setattr(ff_module, "apply_adam_update", apply)
        return records

    @staticmethod
    def _checked_updates(net, batch, layers, cfg, method):
        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        if method == "bp_pairwise":
            last = net.depth - 1
            _, coeffs = ff_loss_and_coeffs(trace, last, 0.0, cfg.theta, batch.polarity)
            return list(backprop_updates(net, trace, coeffs))
        updates = []
        for i in layers:
            gamma = compute_gamma(goodness_table(trace), i, cfg.gamma_mode)
            if cfg.loss_kind == "entropy":
                _, ascent = entropy_loss_and_coeffs(trace, i, gamma, batch.polarity)
                coeffs = -ascent
            else:
                _, coeffs = ff_loss_and_coeffs(trace, i, gamma, cfg.theta, batch.polarity)
            updates.append((i, *layer_local_grad(
                net.layers[i], trace.layer_input(i), coeffs,
                trace.linked_labels if i == 0 else None,
            )))
        return updates

    # ff and entropy_ff: the batch of layerwise stage 2; collab_ff: its one
    # alternating batch over every layer; bp_pairwise: its one backprop batch.
    @pytest.mark.parametrize(
        "method, layers",
        [("ff", [1]), ("collab_ff", [0, 1, 2]), ("entropy_ff", [1]), ("bp_pairwise", [2])],
    )
    def test_one_batch(self, monkeypatch, method, layers):
        import ffnet.baselines as baselines
        import ffnet.ff as ff_module
        from ffnet.runner import METHOD_TABLE

        row = METHOD_TABLE[method]
        cfg = FfConfig(
            theta=3.0, gamma_mode=row.gamma_mode, schedule=row.schedule,
            loss_kind=row.loss_kind, epochs=1, batch_size=20, seed=1,
        )
        pairwise = method == "bp_pairwise"
        records = self._record(monkeypatch, baselines if pairwise else ff_module)
        trainer = baselines.train_pairwise if pairwise else ff_module.train
        train_ds, _ = synthetic_pair(20, 5, d=10, seed=6)  # one batch per epoch
        trainer(init_network([20, 8, 6, 5], make_rng(0)), train_ds, cfg)

        [(net, batch, _, applied)] = [r for r in records if r[2] == layers]
        want = self._checked_updates(net, batch, layers, cfg, method)
        assert [i for i, _, _ in applied] == [i for i, _, _ in want]
        assert any(np.abs(w).max() > 0 for _, w, _ in applied)
        for (_, *got), (_, *checked) in zip(applied, want):
            for a, b in zip(got, checked):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
