import re

import numpy as np
import pytest

from ffnet.entropy import (
    EntropyReport,
    entropy_decompose,
    functional_entropy,
    goodness_entropy_reports,
    scaled_kl_identity,
)
from ffnet.errors import DomainError
from ffnet.linalg import make_rng


class TestFunctionalEntropy:
    def test_constant_is_zero(self):
        assert abs(functional_entropy(np.full(10, 3.7))) < 1e-12

    def test_two_point_value(self):
        ent = functional_entropy([1.0, np.e])
        hbar = (1.0 + np.e) / 2.0
        expected = 0.5 * (np.log(1.0 / hbar) + np.e * np.log(np.e / hbar))
        np.testing.assert_allclose(ent, expected, rtol=1e-12)
        np.testing.assert_allclose(ent, 0.2063, atol=5e-5)

    def test_zero_log_zero_convention(self):
        c = 3.0
        ent = functional_entropy([0.0, c])
        np.testing.assert_allclose(ent, (c / 2.0) * np.log(2.0), rtol=1e-12)

    def test_all_zero_returns_zero(self):
        assert functional_entropy(np.zeros(5)) == 0.0

    def test_negative_value_rejected(self):
        with pytest.raises(DomainError):
            functional_entropy([1.0, -0.5])

    def test_nonnegative_on_random_inputs(self, rng):
        for _ in range(200):
            h = rng.uniform(0.0, 10.0, size=rng.integers(2, 30))
            assert functional_entropy(h) >= 0.0

    def test_zero_only_if_constant(self, rng):
        for _ in range(200):
            h = rng.uniform(0.1, 10.0, size=20)
            if functional_entropy(h) < 1e-12:
                assert h.max() - h.min() < 1e-6 * h.mean()

    def test_degree_one_homogeneity(self, rng):
        for _ in range(100):
            h = rng.uniform(0.0, 5.0, size=25)
            c = rng.uniform(0.1, 100.0)
            lhs = functional_entropy(c * h)
            rhs = c * functional_entropy(h)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("estimate", [functional_entropy, scaled_kl_identity])
def test_empty_values_are_outside_the_domain(estimate):
    with pytest.raises(DomainError, match="^values must be non-empty$"):
        estimate([])


class TestScaledKl:
    def test_constant_gives_zero_pair(self):
        lhs, rhs = scaled_kl_identity(np.full(8, 2.0))
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_two_point_identity(self):
        lhs, rhs = scaled_kl_identity([1.0, np.e])
        assert abs(lhs - rhs) <= 1e-12

    def test_identity_on_random_inputs(self, rng):
        for _ in range(300):
            h = rng.uniform(0.0, 20.0, size=20)
            lhs, rhs = scaled_kl_identity(h)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestDecomposition:
    def test_single_layer_table(self, rng):
        values = rng.uniform(0.0, 5.0, size=(40, 1))
        report = entropy_decompose(values)
        assert abs(report.across_layers) < 1e-12
        np.testing.assert_allclose(report.overall, report.within_layer[0], rtol=1e-12)

    def test_constant_table_all_zero(self):
        report = entropy_decompose(np.full((30, 3), 2.0))
        assert abs(report.overall) < 1e-12
        assert abs(report.across_layers) < 1e-12
        assert np.all(np.abs(report.within_layer) < 1e-12)

    def test_identity_on_random_table(self, rng):
        values = rng.uniform(0.0, 50.0, size=(50, 3))
        report = entropy_decompose(values)
        recomposed = report.across_layers + report.within_layer.mean()
        assert abs(report.overall - recomposed) <= 1e-9

    def test_identity_on_thousand_random_tables(self, rng):
        for _ in range(1000):
            m = int(rng.integers(2, 40))
            k = int(rng.integers(1, 6))
            scale = float(rng.uniform(0.1, 100.0))
            values = rng.uniform(0.0, scale, size=(m, k))
            report = entropy_decompose(values)
            recomposed = report.across_layers + report.within_layer.mean()
            assert abs(report.overall - recomposed) <= 1e-9
            assert report.overall >= -1e-12
            assert report.across_layers >= -1e-12
            assert np.all(report.within_layer >= -1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            entropy_decompose(np.zeros((0, 3)))

    def test_negative_goodness_rejected(self):
        with pytest.raises(DomainError):
            entropy_decompose(np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_a_table_that_is_not_2d_rejected(self, shape):
        message = f"need a 2-D goodness table, got shape {shape}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            entropy_decompose(np.ones(shape))


class TestGoodnessEntropyReports:
    def test_reports_on_trained_net(self, small_trained_net):
        net, _, test_ds = small_trained_net
        reports = goodness_entropy_reports(net, test_ds, n_samples=100, seed=0)
        assert set(reports) == {"positive", "negative", "both"}
        for report in reports.values():
            assert isinstance(report, EntropyReport)
            assert report.overall >= -1e-12
            recomposed = report.across_layers + report.within_layer.mean()
            assert abs(report.overall - recomposed) <= 1e-9
        assert reports["both"].sample_count == 200  # pos + neg rows pooled

    def test_same_seed_same_reports(self, small_trained_net):
        net, _, test_ds = small_trained_net
        a = goodness_entropy_reports(net, test_ds, n_samples=64, seed=5)
        b = goodness_entropy_reports(net, test_ds, n_samples=64, seed=5)
        assert a["both"].overall == b["both"].overall


@pytest.fixture
def rng():
    return make_rng(99)
