"""Acceptance suite.

Criteria 1-4 are pure property checks and always run. Criteria 5-8 are
desk-scale quantitative checks on MNIST / Fashion-MNIST (20 epochs, 10k
training subset, best theta from {1, 5, 10, 20}); they skip with an
explanation when the datasets have not been fetched (`ffnet fetch mnist`,
`ffnet fetch fashion_mnist`). Criterion 9 is the full-scale replication and
is opt-in via `pytest -m full`.

Each criterion is one test and prints one PASS line when it holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import agreement, fd_grad, random_batch, random_net

from ffnet.analysis import default_subset_family, evaluate_subsets, marginal_contributions
from ffnet.baselines import softmax_cross_entropy
from ffnet.data import Dataset
from ffnet.entropy import entropy_decompose, functional_entropy, goodness_entropy_reports, scaled_kl_identity
from ffnet import ff
from ffnet.fetch import dataset_available, load_dataset
from ffnet.ff import test_error as voting_error
from ffnet.ff import (
    FfConfig,
    entropy_loss_and_coeffs,
    ff_loss_and_coeffs,
    positive_prob,
    predict,
)
from ffnet.linalg import l2_row_normalize, make_rng, relu
from ffnet.nn import (
    forward_pass,
    full_backprop_grad,
    init_network,
    layer_local_grad,
)
from ffnet.runner import RunConfig, run_training
from ffnet.synth import synthetic_pair

GRAD_DIMS = [20, 8, 6, 4]
GRAD_TOL = 1e-5


def _layer_loss_fd_check(loss_kind, gamma_mode_fixed_value):
    """FD-check one layer's local gradient with a frozen gamma vector."""
    rng = make_rng(101)
    net = random_net(GRAD_DIMS, seed=101)
    batch = random_batch(rng, 6, GRAD_DIMS[0])
    m = 6
    polarity = np.where(rng.uniform(size=m) < 0.5, 1.0, -1.0)
    if loss_kind == "entropy":
        polarity = np.concatenate([np.ones(3), -np.ones(3)])
    gamma = np.full(m, gamma_mode_fixed_value)
    theta = 2.0
    results = []
    for layer_idx in range(len(GRAD_DIMS) - 1):
        def scalar():
            trace = forward_pass(net, batch, upto=layer_idx + 1)
            if loss_kind == "entropy":
                return entropy_loss_and_coeffs(trace, layer_idx, gamma, polarity)[0]
            return ff_loss_and_coeffs(trace, layer_idx, gamma, theta, polarity)[0]

        trace = forward_pass(net, batch, upto=layer_idx + 1)
        if loss_kind == "entropy":
            _, coeffs = entropy_loss_and_coeffs(trace, layer_idx, gamma, polarity)
        else:
            _, coeffs = ff_loss_and_coeffs(trace, layer_idx, gamma, theta, polarity)
        grad_w, grad_b = layer_local_grad(
            net.layers[layer_idx], trace.layer_input(layer_idx),
            coeffs,
        )
        layer = net.layers[layer_idx]
        results.append(
            agreement(
                [grad_w, grad_b],
                [fd_grad(scalar, layer.weights), fd_grad(scalar, layer.biases)],
                tol=GRAD_TOL,
            )
        )
    return min(results)


def test_criterion_1_gradient_checks():
    """All five gradient routes match central finite differences."""
    # Plain FF loss (gamma = 0) and collaborative loss (fixed gamma != 0)
    assert _layer_loss_fd_check("sigmoid_goodness", 0.0) >= 0.99
    assert _layer_loss_fd_check("sigmoid_goodness", 3.7) >= 0.99
    # Entropy objective
    assert _layer_loss_fd_check("entropy", 0.0) >= 0.99
    assert _layer_loss_fd_check("entropy", 1.9) >= 0.99

    # Pairwise backprop: last-layer goodness loss through the full stack
    rng = make_rng(102)
    net = random_net(GRAD_DIMS, seed=102)
    batch = random_batch(rng, 5, GRAD_DIMS[0])
    polarity = np.where(rng.uniform(size=5) < 0.5, 1.0, -1.0)
    theta = 1.5
    last = net.depth - 1

    def pairwise_loss():
        trace = forward_pass(net, batch)
        return ff_loss_and_coeffs(trace, last, 0.0, theta, polarity)[0]

    trace = forward_pass(net, batch)
    _, out_grad = ff_loss_and_coeffs(trace, last, 0.0, theta, polarity)
    grads = full_backprop_grad(net, trace, out_grad)
    analytic, numeric = [], []
    for i, layer in enumerate(net.layers):
        analytic.extend(grads[i])
        numeric.append(fd_grad(pairwise_loss, layer.weights))
        numeric.append(fd_grad(pairwise_loss, layer.biases))
    assert agreement(analytic, numeric, tol=GRAD_TOL) >= 0.99

    # Classic backprop: softmax cross-entropy with a linear head
    net2 = random_net(GRAD_DIMS, seed=103)
    labels = make_rng(104).integers(0, GRAD_DIMS[-1], size=5)

    def classic_loss():
        t = forward_pass(net2, batch, classic=True)
        return softmax_cross_entropy(t.act[-1], labels)[0]

    t2 = forward_pass(net2, batch, classic=True)
    _, d_logits = softmax_cross_entropy(t2.act[-1], labels)
    grads2 = full_backprop_grad(net2, t2, d_logits)
    analytic2, numeric2 = [], []
    for i, layer in enumerate(net2.layers):
        analytic2.extend(grads2[i])
        numeric2.append(fd_grad(classic_loss, layer.weights))
        numeric2.append(fd_grad(classic_loss, layer.biases))
    assert agreement(analytic2, numeric2, tol=GRAD_TOL) >= 0.99
    print("\nACCEPTANCE 1 PASS: all gradient routes match finite differences at 1e-5")


def test_criterion_2_stop_gradient_equivalence():
    """Collaborative gradients equal plain FF gradients at theta' = theta - gamma."""
    rng = make_rng(210)
    net = random_net([14, 9, 7, 5], seed=210)
    batch = random_batch(rng, 8, 14)
    polarity = np.where(rng.uniform(size=8) < 0.5, 1.0, -1.0)
    theta = 6.0
    trace = forward_pass(net, batch)
    for layer_idx in range(net.depth):
        gamma = rng.uniform(0.0, 12.0, size=8)
        _, coeffs_collab = ff_loss_and_coeffs(trace, layer_idx, gamma, theta, polarity)
        _, coeffs_plain = ff_loss_and_coeffs(
            trace, layer_idx, np.zeros(8), theta - gamma, polarity
        )
        gw_c, gb_c = layer_local_grad(
            net.layers[layer_idx], trace.layer_input(layer_idx),
            coeffs_collab,
        )
        gw_p, gb_p = layer_local_grad(
            net.layers[layer_idx], trace.layer_input(layer_idx),
            coeffs_plain,
        )
        np.testing.assert_array_equal(gw_c, gw_p)
        np.testing.assert_array_equal(gb_c, gb_p)
    print("\nACCEPTANCE 2 PASS: stop-gradient equivalence is exact for every layer")


def test_criterion_3_entropy_identities():
    rng = make_rng(333)
    for _ in range(1000):
        m = int(rng.integers(2, 40))
        k = int(rng.integers(1, 6))
        scale = float(rng.uniform(0.1, 100.0))
        values = rng.uniform(0.0, scale, size=(m, k))

        flat = values.ravel()
        ent = functional_entropy(flat)
        assert ent >= 0.0
        if ent < 1e-12:
            assert flat.max() - flat.min() < 1e-6 * max(flat.mean(), 1e-300)

        c = float(rng.uniform(0.1, 50.0))
        homo_lhs = functional_entropy(c * flat)
        assert abs(homo_lhs - c * ent) <= 1e-10 * max(1.0, c * ent)

        lhs, rhs = scaled_kl_identity(flat)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

        report = entropy_decompose(values)
        recomposed = report.across_layers + report.within_layer.mean()
        assert abs(report.overall - recomposed) <= 1e-9
    print("\nACCEPTANCE 3 PASS: entropy identities hold on 1000 random tables")


def test_criterion_4_core_behaviors(tmp_path):
    # p = 0.5 exactly when g + gamma = theta
    assert positive_prob(6.0, 4.0, 10.0) == 0.5
    assert positive_prob(10.0, 0.0, 10.0) == 0.5

    # Depth-1 schedule equivalence, bitwise
    train_ds, test_ds = synthetic_pair(160, 60, d=14, seed=41)
    kwargs = dict(theta=3.0, epochs=3, batch_size=20, seed=5)
    net_a = init_network([24, 12], make_rng(6))
    net_a, _ = ff.train(net_a, train_ds, FfConfig(schedule="layerwise", **kwargs))
    net_b = init_network([24, 12], make_rng(6))
    net_b, _ = ff.train(
        net_b, train_ds, FfConfig(schedule="alternating", **kwargs)
    )
    np.testing.assert_array_equal(net_a.layers[0].weights, net_b.layers[0].weights)
    np.testing.assert_array_equal(net_a.layers[0].biases, net_b.layers[0].biases)

    # Inference matches a brute-force per-label goodness-sum oracle
    net = random_net([16, 7, 5], seed=42)
    samples = make_rng(43).uniform(size=(15, 6))

    def oracle(x):
        best_label, best_score = None, None
        for y in range(10):
            onehot = [0.0] * 10
            onehot[y] = 1.0
            carry = np.array([list(x) + onehot])
            score = 0.0
            for layer in net.layers:
                act = relu(carry @ layer.weights + layer.biases)
                score += float(sum(v * v for v in act[0]))
                carry = l2_row_normalize(act)
            if best_score is None or score > best_score:
                best_label, best_score = y, score
        return best_label

    np.testing.assert_array_equal(
        predict(net, samples), [oracle(x) for x in samples]
    )

    # Fixed-seed bitwise reproducibility of a whole run
    from ffnet.checkpoint import load_checkpoint

    nets = []
    for tag in ("a", "b"):
        cfg = RunConfig(
            dataset="synthetic", method="collab_ff", theta=4.0, epochs=3,
            batch_size=20, seed=11, layer_dims=[24, 12, 10, 8],
            output_dir=str(tmp_path / tag), entropy_eval_n=30, eval_every=2,
        )
        run_training(cfg, train_ds, test_ds)
        nets.append(load_checkpoint(tmp_path / tag / "checkpoint.npz")[0])

    for la, lb in zip(nets[0].layers, nets[1].layers):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.biases, lb.biases)
    for name in ("history.csv", "errors.csv", "entropy.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    print("\nACCEPTANCE 4 PASS: p(theta)=0.5, depth-1 equivalence, inference oracle, "
          "bitwise reproducibility")


# ---------------------------------------------------------------------------
# Desk-scale quantitative suite (criteria 5-8). Requires fetched datasets.
# ---------------------------------------------------------------------------

DESK_EPOCHS = 20
DESK_SUBSET = 10_000
DESK_BATCH = 200
DESK_THETAS = (1.0, 5.0, 10.0, 20.0)
DESK_HIDDEN = (500, 500, 500)
DESK_SEED = 0


class DeskHarness:
    """Lazily trains and caches the desk-scale models per dataset."""

    def __init__(self):
        self._data: dict[str, tuple[Dataset, Dataset]] = {}
        self._models: dict[tuple[str, str], dict] = {}

    def data(self, name: str) -> tuple[Dataset, Dataset]:
        if name not in self._data:
            if not dataset_available(name):
                pytest.skip(
                    f"{name} not in the data cache; run `ffnet fetch {name}` "
                    "(this environment has no dataset network access)"
                )
            train = load_dataset(name, "train").subset(DESK_SUBSET)
            test = load_dataset(name, "test")
            self._data[name] = (train, test)
        return self._data[name]

    def _train_one(self, name: str, method: str, theta: float):
        train, test = self.data(name)
        dims = [train.d + 10, *DESK_HIDDEN]
        if method == "ff":
            cfg = FfConfig(
                theta=theta, epochs=DESK_EPOCHS, batch_size=DESK_BATCH,
                seed=DESK_SEED, schedule="layerwise", gamma_mode="none",
            )
            net = init_network(dims, make_rng(DESK_SEED))
            net, _ = ff.train(net, train, cfg)
        elif method == "collab_ff":
            cfg = FfConfig(
                theta=theta, epochs=DESK_EPOCHS, batch_size=DESK_BATCH,
                seed=DESK_SEED, schedule="alternating",
                gamma_mode="all_other_layers",
            )
            net = init_network(dims, make_rng(DESK_SEED))
            net, _ = ff.train(net, train, cfg)
        elif method == "entropy_ff":
            cfg = FfConfig(
                theta=theta, epochs=DESK_EPOCHS, batch_size=DESK_BATCH,
                seed=DESK_SEED, schedule="layerwise", gamma_mode="none",
                loss_kind="entropy",
            )
            net = init_network(dims, make_rng(DESK_SEED))
            net, _ = ff.train(net, train, cfg)
        else:
            raise ValueError(method)
        return net, voting_error(net, test)

    def best(self, name: str, method: str) -> dict:
        """Best-theta model for the method (entropy is theta-free)."""
        key = (name, method)
        if key not in self._models:
            thetas = (10.0,) if method == "entropy_ff" else DESK_THETAS
            best = None
            for theta in thetas:
                net, err = self._train_one(name, method, theta)
                if best is None or err < best["error"]:
                    best = {"net": net, "error": err, "theta": theta}
            self._models[key] = best
            print(
                f"\n[desk] {name} {method}: error {best['error']:.4f} "
                f"at theta {best['theta']:g}"
            )
        return self._models[key]


@pytest.fixture(scope="session")
def desk():
    return DeskHarness()


@pytest.mark.desk
def test_criterion_5_collaborative_beats_vanilla(desk):
    """Collaborative (gamma, alternating) beats vanilla FF by >= 0.3pp."""
    for name in ("mnist", "fashion_mnist"):
        vanilla = desk.best(name, "ff")
        collab = desk.best(name, "collab_ff")
        margin = vanilla["error"] - collab["error"]
        assert margin >= 0.003, (
            f"{name}: collaborative {collab['error']:.4f} vs vanilla "
            f"{vanilla['error']:.4f}, margin {margin:.4f} < 0.003"
        )
    print("\nACCEPTANCE 5 PASS: collaborative < vanilla - 0.3pp on both datasets")


@pytest.mark.desk
def test_criterion_6_layer_collaboration_structure(desk):
    """Vanilla: first layer alone is (near-)best, some marginal <= 0.
    Collaborative: the ensemble beats every single layer."""
    for name in ("mnist", "fashion_mnist"):
        _, test = desk.data(name)
        vanilla_net = desk.best(name, "ff")["net"]
        family = default_subset_family(3)
        report = evaluate_subsets(vanilla_net, test, family)
        err_first = report.error_of({0})
        err_full = report.error_of({0, 1, 2})
        assert err_first <= err_full + 0.002, (
            f"{name} vanilla: error({{1}})={err_first:.4f} vs "
            f"error(full)={err_full:.4f}"
        )
        marginals = marginal_contributions(report, 3)
        assert marginals.min() <= 0.0, f"{name} vanilla marginals {marginals}"

        collab_net = desk.best(name, "collab_ff")["net"]
        collab_report = evaluate_subsets(collab_net, test, family)
        singles = [collab_report.error_of({i}) for i in range(3)]
        assert collab_report.error_of({0, 1, 2}) < min(singles), (
            f"{name} collab: full {collab_report.error_of({0, 1, 2}):.4f} vs "
            f"singles {singles}"
        )
    print("\nACCEPTANCE 6 PASS: layer-collaboration structure reproduced")


@pytest.mark.desk
def test_criterion_7_entropy_ordering(desk):
    """Collaborative training ends at higher pooled entropy, lower negative-split."""
    for name in ("mnist", "fashion_mnist"):
        _, test = desk.data(name)
        vanilla_net = desk.best(name, "ff")["net"]
        collab_net = desk.best(name, "collab_ff")["net"]
        vanilla_rep = goodness_entropy_reports(vanilla_net, test, 2000, seed=DESK_SEED)
        collab_rep = goodness_entropy_reports(collab_net, test, 2000, seed=DESK_SEED)
        assert collab_rep["both"].overall >= vanilla_rep["both"].overall, (
            f"{name}: pooled entropy collab {collab_rep['both'].overall:.4f} < "
            f"vanilla {vanilla_rep['both'].overall:.4f}"
        )
        assert collab_rep["negative"].overall <= vanilla_rep["negative"].overall, (
            f"{name}: negative-split entropy collab "
            f"{collab_rep['negative'].overall:.4f} > vanilla "
            f"{vanilla_rep['negative'].overall:.4f}"
        )
    print("\nACCEPTANCE 7 PASS: entropy orderings reproduced on both datasets")


@pytest.mark.desk
def test_criterion_8_entropy_loss_parity(desk):
    """Theta-free entropy objective stays within 1.5pp of sigmoid FF."""
    sigmoid = desk.best("fashion_mnist", "ff")
    entropy = desk.best("fashion_mnist", "entropy_ff")
    assert entropy["error"] <= sigmoid["error"] + 0.015, (
        f"entropy {entropy['error']:.4f} vs sigmoid {sigmoid['error']:.4f}"
    )
    print("\nACCEPTANCE 8 PASS: entropy-loss parity within 1.5pp on Fashion-MNIST")


# ---------------------------------------------------------------------------
# Full-scale replication (criterion 9). Opt in with `pytest -m full`; takes
# hours of CPU.
# ---------------------------------------------------------------------------

FULL_BOUNDS = {
    ("mnist", "ff"): 0.050,
    ("mnist", "collab_ff"): 0.035,
    ("fashion_mnist", "ff"): 0.150,
    ("fashion_mnist", "collab_ff"): 0.130,
}


@pytest.mark.full
def test_criterion_9_full_scale_replication(desk):
    for name in ("mnist", "fashion_mnist"):
        if not dataset_available(name):
            pytest.skip(f"{name} not fetched")
        train = load_dataset(name, "train")
        test = load_dataset(name, "test")
        for method in ("ff", "collab_ff"):
            theta = desk.best(name, method)["theta"]  # desk sweep picks theta
            if method == "ff":
                cfg = FfConfig(
                    theta=theta, epochs=150, batch_size=200, seed=DESK_SEED,
                    schedule="layerwise", gamma_mode="none",
                )
                net = init_network([train.d + 10, *DESK_HIDDEN], make_rng(DESK_SEED))
                net, _ = ff.train(net, train, cfg)
            else:
                cfg = FfConfig(
                    theta=theta, epochs=150, batch_size=200, seed=DESK_SEED,
                    schedule="alternating", gamma_mode="all_other_layers",
                )
                net = init_network([train.d + 10, *DESK_HIDDEN], make_rng(DESK_SEED))
                net, _ = ff.train(net, train, cfg)
            err = voting_error(net, test)
            bound = FULL_BOUNDS[(name, method)]
            print(f"\n[full] {name} {method}: error {err:.4f} (bound {bound})")
            assert err <= bound
    print("\nACCEPTANCE 9 PASS: full-scale error bounds met")
