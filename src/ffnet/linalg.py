"""Dense float64 array helpers shared by every other module.

All numeric state in this library is a row-major 2-D float64 array: a batch
of m samples of dimension d is an (m, d) matrix. Randomness always flows
through a seeded ``numpy.random.Generator`` so that equal seeds plus equal
call sequences reproduce runs bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

# Default denominator guard for row normalization; keeps dead-ReLU rows at
# exactly zero instead of NaN.
NORM_EPSILON = 1e-8

# Largest argument whose exp is finite; math.exp raises OverflowError above it.
_EXP_MAX = math.log(np.finfo(np.float64).max)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit generator (PCG64)."""
    return np.random.default_rng(seed)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a contiguous 2-D float64 array; any other rank is a ShapeError."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {out.shape}")
    return np.ascontiguousarray(out)


def relu(a) -> np.ndarray:
    """Entrywise max(0, a)."""
    return np.maximum(np.asarray(a, dtype=np.float64), 0.0)


def sigmoid(x):
    """Logistic 1 / (1 + exp(-x)), elementwise, in the input's shape.

    exp is libm's (``math.exp`` per element), not NumPy's vectorized one,
    which differs from it in the last bit on a few percent of arguments;
    with libm the result is bit for bit ``scipy.special.expit``. Arguments
    whose exp overflows give exactly 0 without a warning, NaN stays NaN,
    and a 0-d input gives a NumPy scalar.
    """
    neg = np.negative(np.asarray(x, dtype=np.float64))
    clamped = np.minimum(neg, _EXP_MAX)
    e = np.fromiter(map(math.exp, clamped.ravel().tolist()), np.float64, neg.size)
    e = e.reshape(neg.shape)
    e[neg > _EXP_MAX] = np.inf
    return 1.0 / (1.0 + e)


def l2_row_normalize(a, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Divide each row by its Euclidean norm plus ``epsilon``.

    Zero rows map to zero rows (never NaN), including when epsilon == 0.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    a = as_matrix(a)
    # The squares' array receives the result, so a call allocates one
    # full-size array; the norms are bit for bit np.linalg.norm(a, axis=1).
    out = np.multiply(a, a)
    norms = np.sqrt(np.add.reduce(out, axis=1, keepdims=True))
    denom = norms + epsilon
    # Rows with denom == 0 are all-zero rows; 1/denom is never applied there.
    safe = np.where(denom > 0.0, denom, 1.0)
    return np.divide(a, safe, out=out)


def row_sumsq(a) -> np.ndarray:
    """Per-row sum of squares, shape (m,)."""
    a = as_matrix(a)
    return np.einsum("ij,ij->i", a, a)
