import warnings

import numpy as np
import pytest
from conftest import SIGMOID_EDGES

from ffnet.errors import ShapeError
from ffnet.linalg import (
    NORM_EPSILON,
    as_matrix,
    l2_row_normalize,
    make_rng,
    relu,
    row_sumsq,
    sigmoid,
)


class TestAsMatrix:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)], ids=["0d", "1d", "3d"])
    def test_any_rank_but_two_is_a_shape_error(self, shape):
        with pytest.raises(ShapeError) as error:
            as_matrix(np.zeros(shape))
        assert str(error.value) == f"expected a 2-D array, got shape {shape}"


class TestRelu:
    def test_mixed_signs(self):
        np.testing.assert_array_equal(relu([[-1.0, 0.0, 2.0]]), [[0.0, 0.0, 2.0]])

    def test_all_negative_gives_zero_matrix(self):
        out = relu(-np.ones((3, 4)))
        assert np.all(out == 0.0)

    def test_identity_on_positive(self):
        a = np.full((2, 2), 0.5)
        np.testing.assert_array_equal(relu(a), a)


class TestSigmoid:
    def test_bitwise_equal_to_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        rng = make_rng(16)
        for x in [SIGMOID_EDGES] + [
            scale * rng.standard_normal(20_000) for scale in (1e-3, 1.0, 30.0, 800.0)
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sigmoid(x)
            np.testing.assert_array_equal(got.view(np.int64), expit(x).view(np.int64))

    def test_overflow_gives_zero_and_nan_stays_nan(self):
        out = sigmoid(np.array([-800.0, -1e308, -np.inf, np.nan, np.inf]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, np.nan, 1.0])

    def test_keeps_the_input_shape(self):
        assert sigmoid(np.zeros((3, 0, 2))).shape == (3, 0, 2)
        assert sigmoid(np.full((2, 3), -800.0)).shape == (2, 3)
        for x in (0.0, np.float64(-800.0), np.array(2.0)):
            assert isinstance(sigmoid(x), np.float64)
        assert sigmoid(0.0) == 0.5


class TestRowNormalize:
    def test_three_four_five(self):
        out = l2_row_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_zero_row_stays_zero_without_nan(self):
        out = l2_row_normalize(np.zeros((2, 3)))
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_norm_is_just_under_one(self, rng):
        rows = rng.uniform(0.1, 2.0, size=(50, 8))
        out = l2_row_normalize(rows)
        norms = np.linalg.norm(out, axis=1)
        row_norms = np.linalg.norm(rows, axis=1)
        assert np.all(norms <= 1.0 + 1e-15)
        assert np.all(norms >= 1.0 - NORM_EPSILON / row_norms - 1e-15)

    def test_matches_norm_division_bitwise(self, rng):
        rows = np.maximum(rng.standard_normal((40, 500)), 0.0)
        rows[[3, 17]] = 0.0
        before = rows.tobytes()
        want = rows / (np.linalg.norm(rows, axis=1, keepdims=True) + NORM_EPSILON)
        assert l2_row_normalize(rows).tobytes() == want.tobytes()
        assert rows.tobytes() == before


class TestRng:
    def test_equal_seeds_reproduce_draws(self):
        a = make_rng(42).standard_normal(10_000)
        b = make_rng(42).standard_normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            make_rng(1).standard_normal(16), make_rng(2).standard_normal(16)
        )


def test_row_sumsq_matches_manual(rng):
    a = rng.standard_normal((7, 5))
    manual = np.array([sum(float(v) ** 2 for v in row) for row in a])
    np.testing.assert_allclose(row_sumsq(a), manual, rtol=1e-12)
