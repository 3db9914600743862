"""Sanity checks of the training dynamics on synthetic data.

These pin qualitative behaviors at fixed seeds and generous margins; the
quantitative claims live in the desk-scale acceptance tests against real
datasets. Budgets are matched in layer-epochs: layerwise with E epochs
gives each of the k layers E passes, alternating with k*E epochs does too.
"""

from ffnet.analysis import default_subset_family, evaluate_subsets
from ffnet.entropy import goodness_entropy_reports
from ffnet.ff import FfConfig, train_alternating, train_layerwise
from ffnet.ff import test_error as voting_error
from ffnet.linalg import make_rng
from ffnet.nn import init_network
from ffnet.synth import synthetic_pair

DIMS = [58, 40, 30, 20]
EPOCHS = 4


def _trained_pair(seed):
    train_ds, test_ds = synthetic_pair(600, 300, d=48, seed=seed, noise=0.25)
    vanilla = init_network(DIMS, make_rng(1))
    vanilla, _ = train_layerwise(
        vanilla, train_ds,
        FfConfig(theta=5.0, epochs=EPOCHS, batch_size=50, seed=1),
    )
    collab = init_network(DIMS, make_rng(1))
    collab, _ = train_alternating(
        collab, train_ds,
        FfConfig(
            theta=5.0, epochs=3 * EPOCHS, batch_size=50, seed=1,
            schedule="alternating", gamma_mode="all_other_layers",
        ),
    )
    return train_ds, test_ds, vanilla, collab


def test_collaboration_closes_the_gap():
    for seed in (3, 7):
        _, test_ds, vanilla, collab = _trained_pair(seed)
        err_vanilla = voting_error(vanilla, test_ds)
        err_collab = voting_error(collab, test_ds)
        assert err_collab <= err_vanilla - 0.25, (seed, err_vanilla, err_collab)


def test_vanilla_first_layer_competitive_with_full_vote():
    """Later layers fail to add on top of layer 1 under layer-local training."""
    _, test_ds, vanilla, _ = _trained_pair(3)
    report = evaluate_subsets(vanilla, test_ds, default_subset_family(3))
    assert report.error_of({0}) <= report.error_of({0, 1, 2}) + 0.02


def test_collaborative_training_raises_pooled_entropy():
    for seed in (3, 7):
        _, test_ds, vanilla, collab = _trained_pair(seed)
        ent_vanilla = goodness_entropy_reports(vanilla, test_ds, 300, seed=0)
        ent_collab = goodness_entropy_reports(collab, test_ds, 300, seed=0)
        assert ent_collab["both"].overall > ent_vanilla["both"].overall


def test_goodness_separates_positive_from_negative():
    """After vanilla training, true-label inputs score above wrong-label ones."""
    train_ds, test_ds, vanilla, _ = _trained_pair(3)
    reports = goodness_entropy_reports(vanilla, test_ds, 300, seed=1)
    assert reports["positive"].sample_count == reports["negative"].sample_count
    from ffnet.data import link_inputs, sample_wrong_labels
    from ffnet.ff import goodness_table
    from ffnet.nn import forward_pass

    rng = make_rng(5)
    images, labels = test_ds.images[:200], test_ds.labels[:200]
    pos = goodness_table(forward_pass(vanilla, link_inputs(images, labels)))
    wrong = sample_wrong_labels(labels, rng)
    neg = goodness_table(forward_pass(vanilla, link_inputs(images, wrong)))
    # Weakly trained on purpose: the first layer separates clearly, the
    # later layers barely (that is the collaboration failure itself).
    assert pos[:, 0].mean() > 1.1 * neg[:, 0].mean()
    assert pos.sum(axis=1).mean() > neg.sum(axis=1).mean()
