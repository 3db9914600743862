"""Sanity checks of the training dynamics on synthetic data.

These pin qualitative behaviors at fixed seeds and generous margins; the
quantitative claims live in the desk-scale acceptance tests against real
datasets.

The rule: methods are compared at equal ``epochs``. An epoch gives every
layer one pass of updates under either schedule (``ff.fit`` runs each stage
for ``epochs`` epochs), so equal ``epochs`` is equal updates per layer, as
the desk harness's ``DESK_EPOCHS`` gives them. The ``test_matched_budget_*``
pins follow it: ``ff`` and ``collab_ff`` both train for ``EPOCHS`` epochs.

The older pins predate the rule and stay as they were: there the two
budgets match in passes over the data, not in updates per layer. ``ff``
trains layerwise for E epochs: each of the k layers gets E passes of its
own, k*E passes in all. ``collab_ff`` trains alternating for k*E epochs,
each of which updates every layer, so each layer gets k*E passes: k times
``ff``'s updates, 3 times here.
"""

from functools import lru_cache

import pytest
from conftest import assert_both_report_is_stacked

from ffnet.analysis import default_subset_family, evaluate_subsets
from ffnet.entropy import goodness_entropy_reports
from ffnet.ff import FfConfig, train
from ffnet.ff import test_error as voting_error
from ffnet.linalg import make_rng
from ffnet.nn import init_network
from ffnet.synth import synthetic_pair

DIMS = [58, 40, 30, 20]
EPOCHS = 4


@lru_cache(maxsize=None)
def _trained_pair(seed):
    """The synthetic split pair of ``seed`` with ``ff`` and ``collab_ff`` trained on
    it, and their histories; cached, so no test may change what it returns."""
    train_ds, test_ds = synthetic_pair(600, 300, d=48, seed=seed, noise=0.25)
    vanilla = init_network(DIMS, make_rng(1))
    vanilla, vanilla_history = train(
        vanilla, train_ds,
        FfConfig(theta=5.0, epochs=EPOCHS, batch_size=50, seed=1),
    )
    collab = init_network(DIMS, make_rng(1))
    collab, collab_history = train(
        collab, train_ds,
        FfConfig(
            theta=5.0, epochs=3 * EPOCHS, batch_size=50, seed=1,
            schedule="alternating", gamma_mode="all_other_layers",
        ),
    )
    return train_ds, test_ds, vanilla, collab, vanilla_history, collab_history


@lru_cache(maxsize=None)
def _matched_collab(seed):
    """``collab_ff`` trained for ``EPOCHS`` epochs on ``seed``'s split of
    :func:`_trained_pair`: each layer gets as many updates as ``ff``'s do."""
    train_ds = _trained_pair(seed)[0]
    collab = init_network(DIMS, make_rng(1))
    collab, _ = train(
        collab, train_ds,
        FfConfig(
            theta=5.0, epochs=EPOCHS, batch_size=50, seed=1,
            schedule="alternating", gamma_mode="all_other_layers",
        ),
    )
    return collab


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_matched_budget_collaboration_beats_ff(seed):
    """At equal epochs, ``collab_ff``'s full vote errs less than ``ff``'s:
    0.190/0.223/0.157 against 0.457/0.573/0.403 (seeds 3, 7, 11)."""
    _, test_ds, vanilla, *_ = _trained_pair(seed)
    err_vanilla = voting_error(vanilla, test_ds)
    err_collab = voting_error(_matched_collab(seed), test_ds)
    assert err_collab < err_vanilla, (err_vanilla, err_collab)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_matched_budget_full_vote_beats_every_single_layer(seed):
    """At equal epochs, ``collab_ff``'s layers collaborate: the full vote errs
    less than each of its layers voting alone. Its layers 1/2/3 alone err
    0.323/0.760/0.897, 0.300/0.847/0.907 and 0.267/0.790/0.850 (seeds 3, 7,
    11), its full vote 0.190, 0.223 and 0.157."""
    _, test_ds, *_ = _trained_pair(seed)
    collab = _matched_collab(seed)
    full = voting_error(collab, test_ds)
    alone = [_alone(collab, test_ds, layer) for layer in range(1, len(DIMS))]
    assert all(full < error for error in alone), (full, alone)


def test_collaboration_closes_the_gap():
    for seed in (3, 7):
        _, test_ds, vanilla, collab, *_ = _trained_pair(seed)
        err_vanilla = voting_error(vanilla, test_ds)
        err_collab = voting_error(collab, test_ds)
        assert err_collab <= err_vanilla - 0.25, (seed, err_vanilla, err_collab)


def test_vanilla_first_layer_competitive_with_full_vote():
    """Later layers fail to add on top of layer 1 under layer-local training."""
    _, test_ds, vanilla, *_ = _trained_pair(3)
    report = evaluate_subsets(vanilla, test_ds, default_subset_family(3))
    assert report.error_of({0}) <= report.error_of({0, 1, 2}) + 0.02


def test_collaborative_training_raises_pooled_entropy():
    for seed in (3, 7):
        _, test_ds, vanilla, collab, *_ = _trained_pair(seed)
        ent_vanilla = goodness_entropy_reports(vanilla, test_ds, 300, seed=0)
        ent_collab = goodness_entropy_reports(collab, test_ds, 300, seed=0)
        assert ent_collab["both"].overall > ent_vanilla["both"].overall


def test_goodness_separates_positive_from_negative():
    """After vanilla training, true-label inputs score above wrong-label ones."""
    train_ds, test_ds, vanilla, *_ = _trained_pair(3)
    reports = goodness_entropy_reports(vanilla, test_ds, 300, seed=1)
    assert_both_report_is_stacked(reports, vanilla, test_ds, 300, seed=1)
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


def _last_separation(history, layer):
    """Positive minus negative train goodness of ``layer`` (1-based) in its last epoch."""
    row = [r for r in history if r["layer"] == layer][-1]
    return row["mean_goodness_pos"] - row["mean_goodness_neg"]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_collaboration_separates_the_later_layers(seed):
    """Layers 2 and 3 of ``ff`` end their epochs at -0.026 to -0.000; gamma lets
    those of ``collab_ff`` reach +0.082 to +0.198 (seeds 3, 7, 11)."""
    *_, vanilla_history, collab_history = _trained_pair(seed)
    for layer in (2, 3):
        vanilla = _last_separation(vanilla_history, layer)
        collab = _last_separation(collab_history, layer)
        assert collab > 0.04, (layer, collab)
        assert collab > vanilla + 0.05, (layer, vanilla, collab)


@pytest.mark.xfail(strict=True, reason="ff's layer 2 ends at -0.0002 at seed 11")
def test_vanilla_later_layers_separate_the_wrong_way():
    """``ff``'s layers 2 and 3 end at -0.026 to -0.0002 (seeds 3, 7, 11): they do
    not separate, but they are not pushed clearly below zero either."""
    for seed in (3, 7, 11):
        *_, vanilla_history, _ = _trained_pair(seed)
        for layer in (2, 3):
            assert _last_separation(vanilla_history, layer) < -0.005, (seed, layer)


def _alone(net, test_ds, layer):
    """Test error of a vote by ``layer`` (1-based) alone."""
    return evaluate_subsets(net, test_ds, [{layer - 1}]).error_of({layer - 1})


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_collaboration_makes_layer_2_vote_better_alone(seed):
    """Alone, ``ff``'s layer 2 errs 0.820/0.927/0.953 on the test split (seeds 3,
    7, 11; chance is 0.9) and ``collab_ff``'s 0.583/0.603/0.563."""
    _, test_ds, vanilla, collab, *_ = _trained_pair(seed)
    vanilla_error, collab_error = _alone(vanilla, test_ds, 2), _alone(collab, test_ds, 2)
    assert collab_error < vanilla_error - 0.15, (vanilla_error, collab_error)


@pytest.mark.xfail(strict=True, reason="seed 3: collab_ff's layer 3 alone errs 0.903, ff's 0.897")
def test_collaboration_makes_layer_3_vote_better_alone():
    """Alone, ``ff``'s layer 3 errs 0.897/0.930/0.937 (seeds 3, 7, 11) and
    ``collab_ff``'s 0.903/0.740/0.860: lower at seeds 7 and 11 only."""
    for seed in (3, 7, 11):
        _, test_ds, vanilla, collab, *_ = _trained_pair(seed)
        vanilla_error, collab_error = _alone(vanilla, test_ds, 3), _alone(collab, test_ds, 3)
        assert collab_error < vanilla_error, (seed, vanilla_error, collab_error)


def _within_layer_entropy(net, test_ds):
    """Each split's per-layer within-layer functional entropy over the whole
    test split (300 samples, under the 2000 drawn)."""
    reports = goodness_entropy_reports(net, test_ds, 2000, seed=0)
    return {split: report.within_layer for split, report in reports.items()}


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_vanilla_later_layers_have_lower_within_layer_entropy(seed):
    """The paper's own measure ranks the layers as their separation does:
    ``ff``'s layers 2 and 3 have lower within-layer entropy than
    ``collab_ff``'s. Over all rows (``both``) ``ff`` has 0.039/0.014,
    0.035/0.008 and 0.048/0.011 (layer 2/layer 3 at seeds 3, 7, 11) and
    ``collab_ff`` 0.075/0.057, 0.064/0.042 and 0.054/0.052; over the
    negative rows ``ff`` has 0.039/0.014, 0.035/0.008 and 0.042/0.010 and
    ``collab_ff`` 0.052/0.055, 0.049/0.036 and 0.047/0.042."""
    _, test_ds, *nets, _, _ = _trained_pair(seed)
    vanilla, collab = (_within_layer_entropy(net, test_ds) for net in nets)
    for split in ("both", "negative"):
        for layer in (2, 3):
            assert vanilla[split][layer - 1] < collab[split][layer - 1], (split, layer)


@pytest.mark.xfail(
    strict=True, reason="seed 11: ff's layer 2 has 0.054 on positive rows, collab_ff's 0.049"
)
def test_vanilla_later_layers_have_lower_within_layer_entropy_on_positive_rows():
    """Over the positive rows ``ff`` has 0.039/0.014, 0.035/0.008 and
    0.054/0.013 (layer 2/layer 3 at seeds 3, 7, 11) and ``collab_ff``
    0.084/0.056, 0.064/0.042 and 0.049/0.057: lower at seeds 3 and 7 only."""
    for seed in (3, 7, 11):
        _, test_ds, *nets, _, _ = _trained_pair(seed)
        vanilla, collab = (_within_layer_entropy(net, test_ds)["positive"] for net in nets)
        for layer in (2, 3):
            assert vanilla[layer - 1] < collab[layer - 1], (seed, layer)
