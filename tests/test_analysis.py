import numpy as np
import pytest

from ffnet.analysis import (
    default_subset_family,
    evaluate_subsets,
    marginal_contributions,
    parse_subset_label,
    subset_label,
)
from ffnet.errors import ConfigError
from ffnet.ff import label_goodness_scores, predict


class TestSubsetLabels:
    def test_round_trip(self):
        assert subset_label({0, 2}) == "1+3"
        assert parse_subset_label("1+3") == frozenset({0, 2})

    def test_bad_labels_rejected(self):
        with pytest.raises(ConfigError):
            parse_subset_label("0+1")
        with pytest.raises(ConfigError):
            parse_subset_label("a+b")


class TestDefaultFamily:
    def test_depth_three_family(self):
        family = default_subset_family(3)
        assert frozenset({0}) in family
        assert frozenset({0, 1}) in family
        assert frozenset({0, 1, 2}) in family
        assert frozenset({1, 2}) in family  # leave out layer 1
        assert len(family) == len(set(family)) <= 8

    def test_depth_one_family_is_the_full_set(self):
        """No leave-one-out set: leaving out the one layer leaves no vote."""
        assert default_subset_family(1) == [frozenset({0})]


class TestEvaluateSubsets:
    def test_shapes_and_error_range(self, small_trained_net):
        net, _, test_ds = small_trained_net
        subsets = [{0}, {1}, {2}, {0, 1}, {0, 1, 2}]
        report = evaluate_subsets(net, test_ds, subsets)
        assert len(report.entries) == 5
        for entry in report.entries:
            assert 0.0 <= entry.error <= 1.0
            assert entry.n == test_ds.n

    def test_duplicates_rejected(self, small_trained_net):
        net, _, test_ds = small_trained_net
        with pytest.raises(ConfigError, match="^subset 1 is requested twice$"):
            evaluate_subsets(net, test_ds, [{0}, {0}])

    def test_invalid_subset_rejected(self, small_trained_net):
        net, _, test_ds = small_trained_net
        with pytest.raises(ConfigError):
            evaluate_subsets(net, test_ds, [{9}])
        with pytest.raises(ConfigError):
            evaluate_subsets(net, test_ds, [set()])

    def test_a_none_member_is_no_subset(self, small_trained_net):
        """A None member is no subset: every member is read as a set of layers."""
        net, _, test_ds = small_trained_net
        with pytest.raises(TypeError):
            evaluate_subsets(net, test_ds, [None])

    def test_cache_matches_per_sample_inference(self, small_trained_net):
        """Cached subset error equals an uncached one-sample-at-a-time pass."""
        net, _, test_ds = small_trained_net
        subset = {0, 1, 2}
        report = evaluate_subsets(net, test_ds.subset(60), [subset])
        slow_preds = np.array([predict(net, x[None])[0] for x in test_ds.subset(60).images])
        slow_error = float(np.mean(slow_preds != test_ds.subset(60).labels))
        assert report.error_of(subset) == slow_error

    def test_order_independent(self, small_trained_net):
        net, _, test_ds = small_trained_net
        a = evaluate_subsets(net, test_ds, [{0}, {1, 2}])
        b = evaluate_subsets(net, test_ds, [{1, 2}, {0}])
        assert a.error_of({0}) == b.error_of({0})
        assert a.error_of({1, 2}) == b.error_of({1, 2})

    def test_argmax_invariant_under_monotone_rescale(self, small_trained_net):
        net, _, test_ds = small_trained_net
        images = test_ds.images[:40]
        scores = label_goodness_scores(net, images).sum(axis=2)
        base = np.argmax(scores, axis=1)
        for transform in (lambda s: 3.0 * s, lambda s: np.log1p(s), lambda s: s**1.5):
            np.testing.assert_array_equal(np.argmax(transform(scores), axis=1), base)

    def test_cache_shape(self, small_trained_net):
        net, _, test_ds = small_trained_net
        cache = label_goodness_scores(net, test_ds.images[:10])
        assert cache.shape == (10, 10, net.depth)
        assert np.all(cache >= 0.0)


class TestMarginals:
    def _report_from_errors(self, errors):
        """Build a fake report: errors maps frozenset -> error."""
        from ffnet.analysis import SubsetEvalReport, SubsetResult

        return SubsetEvalReport(
            entries=[
                SubsetResult(layers=k, error=v, n=100) for k, v in errors.items()
            ]
        )

    def test_equal_errors_give_zero_marginals(self):
        full = frozenset({0, 1, 2})
        errors = {full: 0.1}
        for i in range(3):
            errors[full - {i}] = 0.1
        report = self._report_from_errors(errors)
        np.testing.assert_array_equal(marginal_contributions(report, 3), np.zeros(3))

    def test_worked_example(self):
        full = frozenset({0, 1, 2})
        errors = {full: 0.02, full - {2}: 0.025, full - {0}: 0.02, full - {1}: 0.02}
        report = self._report_from_errors(errors)
        marginals = marginal_contributions(report, 3)
        np.testing.assert_allclose(marginals[2], 0.005)
        np.testing.assert_allclose(marginals[0], 0.0)

    def test_missing_subsets_rejected(self, small_trained_net):
        net, _, test_ds = small_trained_net
        report = evaluate_subsets(net, test_ds, [{0, 1, 2}])
        with pytest.raises(ConfigError):
            marginal_contributions(report, 3)

    def test_marginals_from_real_evaluation(self, small_trained_net):
        net, _, test_ds = small_trained_net
        report = evaluate_subsets(net, test_ds, default_subset_family(net.depth))
        marginals = marginal_contributions(report, net.depth)
        assert marginals.shape == (net.depth,)
        full_err = report.error_of(frozenset(range(net.depth)))
        for i, marginal in enumerate(marginals):
            loo_err = report.error_of(frozenset(range(net.depth)) - {i})
            np.testing.assert_allclose(marginal, loo_err - full_err)
